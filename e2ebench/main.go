// Command e2ebench is alem's end-to-end benchmark. It times the two
// jobs a user waits on — the offline job from a generated dataset to a
// saved model artifact, and the online job of an almserve process
// answering score and match requests — and, in a separate traced run,
// splits each across the layers it calls: dataset, blocking, feature,
// textsim, core, model, serve and match.
//
// Run it from the repository root through its launcher, which builds
// this program and almserve from the sources in the checkout:
//
//	bash e2ebench/run.sh --workload product-forest --seed 1 --seconds 25 --trace 0
//
// The workloads are listed in e2ebench/WORKLOADS.md. Every metric is
// printed as "metric <name> <value> <unit>"; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics (end-to-end metrics with --trace 0, per-layer ones with
// --trace 1). A traced run also writes its spans as JSON lines under
// --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

const (
	// The offline protocol of every workload: a 400-label budget, stop
	// at F1 0.99, 20-tree forests.
	maxLabels   = 400
	targetF1    = 0.99
	forestTrees = 20
)

// workload is one input set the benchmark runs.
type workload struct {
	name              string
	dataset           string
	learner, selector string
	// setups is how many times a run sets up; setup_s is the median.
	setups int
	// datasets is how many datasets a run generates, from seeds derived
	// from its own; its jobs cycle through them, so a run's figures are
	// medians over several inputs rather than over one.
	datasets int
	// scale is the dataset scale of the offline job; on serve-mix it is
	// the training set of the served model.
	scale float64
	// sessions is how many sessions a run drives for iter_ms, labels and
	// best_f1 beyond its jobs' own: sessions-1 more on the last job's
	// pool with the next seeds.
	sessions int
	// tableScale sizes the held-out tables of a match request and
	// scoreVectors is the number of vectors in a score request.
	tableScale   float64
	scoreVectors int
	// Offline workloads apply each job's model in process to a tenth of
	// applyScores score and applyMatches match requests, and top both
	// up at the end of the run.
	applyScores, applyMatches int
	// serve-mix serves the model and offers score and match requests
	// at these fixed rates per second.
	serve                bool
	scoreRate, matchRate float64
}

// The request sizes and rates follow the repository's own tools and
// measurements (WORKLOADS.md gives the sources): 26×26 held-out tables
// per match request, 16 vectors per served score request (almload's
// default) at 100 requests/s (serve_smoke.sh), and 4 match requests/s.
var workloads = []workload{
	{
		name: "product-forest", dataset: "abt-buy", learner: "forest", selector: "forest-qbc",
		setups: 7, datasets: 4, scale: 1, sessions: 3, tableScale: 0.02, scoreVectors: 256,
		applyScores: 3000, applyMatches: 150,
	},
	{
		name: "product-committee", dataset: "amazon-google", learner: "svm", selector: "qbc",
		setups: 7, datasets: 4, scale: 1, sessions: 3, tableScale: 0.02, scoreVectors: 256,
		applyScores: 3000, applyMatches: 150,
	},
	{
		name: "serve-mix", dataset: "abt-buy", learner: "forest", selector: "forest-qbc",
		setups: 3, datasets: 3, scale: 0.3, sessions: 6, tableScale: 0.02, scoreVectors: 16,
		serve: true, scoreRate: 100, matchRate: 4,
	},
}

// dataSeed is the generator and session seed of a run's k-th dataset;
// runs with different seeds use disjoint datasets.
func (w workload) dataSeed(seed int64, k int) int64 { return seed*int64(w.datasets) + int64(k) }

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// tiny shrinks a workload to seconds of work for the smoke test: small
// datasets, few requests. The code paths are the full run's.
func (w workload) tiny() workload {
	w.scale = 0.03
	w.datasets = 2
	w.sessions = 2
	w.applyScores, w.applyMatches = 20, 4
	w.scoreRate, w.matchRate = 20, 4
	return w
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	almserve string
	out      string
	// tiny shrinks the workload for the smoke test.
	tiny bool
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (see WORKLOADS.md)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 25, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&o.almserve, "almserve", "", "almserve binary built from the sources under test (serve-mix)")
	flag.StringVar(&o.out, "out", ".bench_build/e2ebench", "directory for artifacts and trace files")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if o.workload == "" || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload, --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		stop()
		os.Exit(1)
	}
}

// run measures one workload and prints its metrics and result line.
func run(ctx context.Context, o options, stdout io.Writer) error {
	w, err := lookup(o.workload)
	if err != nil {
		return err
	}
	if o.tiny {
		w = w.tiny()
	}
	if w.serve && o.almserve == "" {
		return fmt.Errorf("workload %s needs --almserve", w.name)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	meta := collectMeta(o)
	line, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "meta %s\n", line)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	m := &measured{}
	if w.serve {
		err = m.runServe(ctx, w, o, tr)
	} else {
		err = m.runOffline(ctx, w, o, tr)
	}
	if err != nil {
		return err
	}

	var names []metricDef
	values := map[string]float64{}
	if o.trace {
		names = perLayer
		m.perLayer(tr, values)
		path := fmt.Sprintf("%s/trace-%s-seed%d.jsonl", o.out, w.name, o.seed)
		if err := tr.write(path, meta); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace %d spans written to %s\n", len(tr.spans), path)
	} else {
		names = endToEnd
		m.endToEnd(values)
	}
	for _, e := range m.errs {
		fmt.Fprintf(stdout, "check failed: %s\n", e)
	}
	res := result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]metric{},
	}
	for _, d := range names {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.name, v, d.unit)
	}
	if o.trace && w.serve {
		for _, d := range serveOnly {
			fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.name, values[d.name], d.unit)
		}
	}
	fmt.Fprintf(stdout, "metric fail_frac %.6g ratio\n", float64(m.failed)/float64(max(m.attempted, 1)))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

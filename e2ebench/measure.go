package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/model"
	"github.com/alem/alem/internal/textsim"
)

// measured gathers everything one run observed.
type measured struct {
	setup []time.Duration
	// data holds the run's datasets; job is the latest timed job and
	// first the first job on each dataset. A job on a dataset that
	// already had one must reproduce that job's labels, F1 and artifact
	// bytes exactly.
	data     []*dataset.Dataset
	job      *jobResult
	first    map[int]*jobResult
	ttm      []time.Duration
	untraced []time.Duration // traced runs: untraced jobs' times to model
	sessions []*sessionResult
	steps    []time.Duration
	art      *model.Artifact
	apply    *applyResult
	// jobData is the dataset of the latest job.
	jobData   *dataset.Dataset
	peakRSSMB float64

	// Traced runs only: the match replay split and the serial
	// extraction pass.
	replayBlock, replayFeat, replayPred []time.Duration
	extractW1                           time.Duration
	metricPass                          map[string]time.Duration
	tokenRepeat                         float64

	attempted, failed int
	errs              []string
}

// absorb takes in the apply or serve phase's measurements and counts.
func (m *measured) absorb(a *applyResult) {
	m.apply = a
	m.attempted += a.attempted
	m.failed += a.failed
	m.errs = append(m.errs, a.errs...)
}

// check counts one output check, failed when err is non-nil.
func (m *measured) check(err error) {
	m.attempted++
	if err != nil {
		m.failed++
		m.errs = append(m.errs, err.Error())
	}
}

func (m *measured) artifactPath(o options, w workload) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
}

// loadData generates the run's datasets, each timed as a dataset.load
// span.
func loadData(w workload, seed int64, tr *tracer) ([]*dataset.Dataset, error) {
	var out []*dataset.Dataset
	for k := 0; k < w.datasets; k++ {
		start := time.Now()
		d, err := dataset.Load(w.dataset, w.scale, w.dataSeed(seed, k))
		tr.record(0, "dataset.load", start, time.Now())
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// timedJob runs one job on the run's k-th dataset and records it. In a
// traced run an untraced job on the same dataset runs first, so
// trace.overhead_pct compares traced and untraced jobs on equal inputs.
func (m *measured) timedJob(ctx context.Context, w workload, o options, k int, tr *tracer) (*jobResult, error) {
	d, seed := m.data[k%len(m.data)], w.dataSeed(o.seed, k%len(m.data))
	if tr != nil {
		j, err := offlineJob(ctx, w, d, seed, m.artifactPath(o, w), nil)
		if err != nil {
			return nil, err
		}
		m.untraced = append(m.untraced, j.timeToModel)
	}
	j, err := offlineJob(ctx, w, d, seed, m.artifactPath(o, w), tr)
	if err != nil {
		return nil, err
	}
	m.addJob(k%len(m.data), j)
	m.jobData = d
	return j, nil
}

// addJob records one timed job on dataset k; a job on a dataset that
// already had one must reproduce it.
func (m *measured) addJob(k int, j *jobResult) {
	m.attempted++
	m.ttm = append(m.ttm, j.timeToModel)
	m.steps = append(m.steps, j.session.steps...)
	if m.first == nil {
		m.first = map[int]*jobResult{}
	}
	if f := m.first[k]; f == nil {
		m.first[k] = j
		m.sessions = append(m.sessions, j.session)
	} else if j.session.labels != f.session.labels || j.session.bestF1 != f.session.bestF1 || string(j.artifact) != string(f.artifact) {
		m.check(fmt.Errorf("a repeated job on the same dataset produced a different model (labels %d vs %d, best F1 %v vs %v)",
			j.session.labels, f.session.labels, j.session.bestF1, f.session.bestF1))
	}
	m.job = j
}

// resetPeakRSS returns garbage to the OS and restarts the kernel's
// peak-RSS counter, so the next VmHWM reading covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runOffline is the offline workloads' run. Set-up generates the run's
// datasets w.setups times. The timed part repeats the whole job —
// block, featurize, session, save — cycling through the datasets for
// the run's seconds (at least once). After each job the artifact is
// reloaded and checked and a tenth of the apply calls runs with it.
// Then sessions-1 more sessions run on the last job's pool, and the
// apply calls are topped up.
func (m *measured) runOffline(ctx context.Context, w workload, o options, tr *tracer) error {
	for k := 0; k < w.setups; k++ {
		start := time.Now()
		ds, err := loadData(w, o.seed, tr)
		if err != nil {
			return err
		}
		m.setup = append(m.setup, time.Since(start))
		m.data = ds
	}
	r, err := makeRequests(ctx, w, m.data[0].BlockThreshold, nil, o.seed)
	if err != nil {
		return err
	}
	// Each job starts from the same heap: the previous job's pool is
	// dropped and the peak-RSS counter restarted. peak_rss_mb is the
	// median peak of the jobs after the first, which runs before a
	// reloaded artifact and the references are held.
	var peaks []float64
	a := &applyResult{}
	start := time.Now()
	for k := 0; ; k++ {
		begin := time.Now()
		if m.job != nil {
			m.job.pool = nil
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		j, err := m.timedJob(ctx, w, o, k, tr)
		if err != nil {
			return err
		}
		peak, err := procPeakRSSMB("/proc/self/status")
		if err != nil {
			return err
		}
		peaks = append(peaks, peak)
		if err := m.reload(tr); err != nil {
			return err
		}
		r.answer(j.session.learner)
		a.applyInProcess(ctx, m.art, r, w.applyScores/10, w.applyMatches/10, tr)
		if time.Since(start)+time.Since(begin) > o.seconds {
			break
		}
	}
	m.peakRSSMB = median(peaks[min(1, len(peaks)-1):])
	if err := m.moreSessions(ctx, w, o, tr); err != nil {
		return err
	}
	a.applyInProcess(ctx, m.art, r, max(0, w.applyScores-len(a.score)), max(0, w.applyMatches-len(a.match)), tr)
	m.absorb(a)
	if tr != nil {
		m.replay(ctx, r, tr)
		m.traceExtras(tr)
	}
	return nil
}

// moreSessions drives w.sessions-1 more sessions on the latest job's
// pool, for more iter_ms samples and a median of labels and best_f1 over
// more sessions. The first re-runs the job's own session, with its seed,
// and must reproduce its labels, F1 and artifact bytes; the others use
// new seeds.
func (m *measured) moreSessions(ctx context.Context, w workload, o options, tr *tracer) error {
	for k := 1; k < w.sessions; k++ {
		s, err := runSession(ctx, w, m.job.pool, m.jobData, m.job.seed+int64(k-1)*1000, tr, 0)
		if err != nil {
			return err
		}
		m.attempted++
		m.steps = append(m.steps, s.steps...)
		if k > 1 {
			m.sessions = append(m.sessions, s)
			continue
		}
		j := m.job.session
		raw, err := encodeArtifact(s.learner, m.jobData, s.labels)
		if err == nil && (s.labels != j.labels || s.bestF1 != j.bestF1 || string(raw) != string(m.job.artifact)) {
			err = fmt.Errorf("re-running a job's session with its seed produced a different model (labels %d vs %d, best F1 %v vs %v)",
				s.labels, j.labels, s.bestF1, j.bestF1)
		}
		m.check(err)
	}
	return nil
}

// reload checks the latest job's artifact loads back and predicts as
// the trained learner on the whole pool.
func (m *measured) reload(tr *tracer) error {
	start := time.Now()
	art, err := checkArtifact(m.job.artifact, m.job.session.learner, m.job.pool)
	tr.record(0, "model.load", start, time.Now())
	m.check(err)
	if err != nil {
		return fmt.Errorf("artifact check: %w", err)
	}
	m.art = art
	return nil
}

// runServe is the serve-mix run. Each of the w.setups set-ups
// generates a training set, runs the offline job on it and starts
// almserve on the artifact; the last server takes the open-loop mix for
// the run's seconds. Then sessions-1 more sessions run on the last
// training pool.
func (m *measured) runServe(ctx context.Context, w workload, o options, tr *tracer) (err error) {
	var srv *server
	defer func() {
		if srv != nil {
			if serr := srv.stop(); err == nil && serr != nil {
				err = fmt.Errorf("almserve exit: %w", serr)
			}
		}
	}()
	path := m.artifactPath(o, w)
	for k := 0; k < w.setups; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("almserve exit: %w", err)
			}
			srv = nil
		}
		dk := k % w.datasets
		seed := w.dataSeed(o.seed, dk)
		if tr != nil {
			// The traced run's untraced job on the same dataset, for
			// trace.overhead_pct, runs before the set-up is timed.
			d, err := dataset.Load(w.dataset, w.scale, seed)
			if err != nil {
				return err
			}
			u, err := offlineJob(ctx, w, d, seed, path, nil)
			if err != nil {
				return err
			}
			m.untraced = append(m.untraced, u.timeToModel)
		}
		start := time.Now()
		d, err := dataset.Load(w.dataset, w.scale, seed)
		tr.record(0, "dataset.load", start, time.Now())
		if err != nil {
			return err
		}
		j, err := offlineJob(ctx, w, d, seed, path, tr)
		if err != nil {
			return err
		}
		m.addJob(dk, j)
		m.jobData = d
		boot := time.Now()
		if srv, err = startServer(o.almserve, path); err != nil {
			return err
		}
		tr.record(0, "serve.start", boot, time.Now())
		m.setup = append(m.setup, time.Since(start))
	}
	if err := m.reload(tr); err != nil {
		return err
	}
	r, err := makeRequests(ctx, w, m.jobData.BlockThreshold, m.job.pool, o.seed)
	if err != nil {
		return err
	}
	r.answer(m.art.Learner)
	m.check(r.checkMatches(ctx, m.art))
	a, err := serveLoad(ctx, srv, r, w, o.seconds, min(2, runtime.NumCPU()), o.seed, tr)
	if err != nil {
		return err
	}
	m.absorb(a)
	if m.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return err
	}
	if err := m.moreSessions(ctx, w, o, tr); err != nil {
		return err
	}
	if tr != nil {
		// The served matches shared the CPUs with score traffic, so the
		// replays that split them by layer run under the same traffic.
		var sent, failed int
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			sent, failed = scoreTraffic(srv, r, w, o.seed, stop)
		}()
		m.replay(ctx, r, tr)
		close(stop)
		<-done
		m.attempted += sent
		if failed > 0 {
			m.failed += failed
			m.errs = append(m.errs, fmt.Sprintf("%d of %d score requests sent during the match replays failed", failed, sent))
		}
		m.traceExtras(tr)
	}
	return nil
}

// replay splits each applied or served match request by layer.
func (m *measured) replay(ctx context.Context, r *requests, tr *tracer) {
	var err error
	m.replayBlock, m.replayFeat, m.replayPred, err = replayMatches(ctx, m.art, r, len(m.apply.match), tr)
	m.check(err)
}

// traceExtras is the traced run's extra work outside the timed jobs:
// the serial extraction pass that prices featurization's fan-out, one
// extraction pass per textsim metric, and the pool's token-pair repeat
// ratio.
func (m *measured) traceExtras(tr *tracer) {
	d, pairs := m.jobData, m.job.pool.Pairs
	start := time.Now()
	feature.NewExtractor(d.Left.Schema).ExtractPairsWorkers(d, pairs, 1)
	m.extractW1 = time.Since(start)
	tr.record(0, "feature.extract_w1", start, time.Now())
	m.metricPass = map[string]time.Duration{}
	for _, mt := range textsim.All() {
		ext := feature.NewExtractorWithMetrics(d.Left.Schema, []textsim.Metric{mt})
		start := time.Now()
		ext.ExtractPairsWorkers(d, pairs, 0)
		m.metricPass[mt.Name()] = time.Since(start)
		tr.record(0, "textsim."+mt.Name(), start, time.Now())
	}
	m.tokenRepeat = tokenPairRepeat(d, m.job.pool)
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"time_to_model_s", "s"},
	{"iter_ms_p50", "ms"},
	{"iter_ms_p90", "ms"},
	{"labels", "count"},
	{"best_f1", "ratio"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"score_ms_p50", "ms"},
	{"score_ms_p99", "ms"},
	{"match_ms_p50", "ms"},
	{"match_ms_p90", "ms"},
}

func (m *measured) endToEnd(v map[string]float64) {
	v["setup_s"] = median(msList(m.setup)) / 1000
	v["time_to_model_s"] = median(msList(m.ttm)) / 1000
	steps := msList(m.steps)
	v["iter_ms_p50"], v["iter_ms_p90"] = median(steps), quantile(steps, 0.9)
	var labels, f1 []float64
	for _, s := range m.sessions {
		labels = append(labels, float64(s.labels))
		f1 = append(f1, s.bestF1)
	}
	v["labels"], v["best_f1"] = median(labels), median(f1)
	v["peak_rss_mb"] = m.peakRSSMB
	v["ok_frac"] = 1 - float64(m.failed)/float64(m.attempted)
	score, mt := msList(m.apply.score), msList(m.apply.match)
	v["score_ms_p50"], v["score_ms_p99"] = median(score), quantile(score, 0.99)
	v["match_ms_p50"], v["match_ms_p90"] = median(mt), quantile(mt, 0.9)
}

// perLayer lists the traced run's metrics. The textsim entries, one per
// metric of the standard extractor, are appended in init.
var perLayer = []metricDef{
	{"dataset.load_ms", "ms"},
	{"blocking.generate_ms", "ms"},
	{"blocking.pairs_verified", "count"},
	{"blocking.pairs_kept", "count"},
	{"blocking.kept_ratio", "ratio"},
	{"feature.extract_ms", "ms"},
	{"feature.pairs", "count"},
	{"feature.us_per_pair", "us"},
	{"feature.extract_w1_ms", "ms"},
	{"feature.fanout_speedup", "x"},
	{"feature.token_pair_repeat", "x"},
	{"core.seed_ms", "ms"},
	{"core.train_ms", "ms"},
	{"core.train_ms_p90", "ms"},
	{"core.evaluate_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.select_ms_p90", "ms"},
	{"core.label_ms", "ms"},
	{"core.iterations", "count"},
	{"model.save_ms", "ms"},
	{"model.load_ms", "ms"},
	{"model.artifact_bytes", "bytes"},
	{"serve.score_batches", "count"},
	{"serve.vectors_per_batch", "count"},
	{"serve.shed", "count"},
	{"serve.timeouts", "count"},
	{"serve.extractor_reuse_ratio", "ratio"},
	{"serve.match_inner_ms_p50", "ms"},
	{"match.block_ms", "ms"},
	{"match.featurize_ms", "ms"},
	{"match.predict_ms", "ms"},
	{"loadgen.sent", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.layer_coverage", "ratio"},
}

// serveOnly are traced-run metrics with no counterpart offline. They
// are printed on serve-mix only and are not in the result object.
var serveOnly = []metricDef{
	{"serve.match_overhead_ms_p50", "ms"},
	{"loadgen.lag_ms_p99", "ms"},
}

func init() {
	for _, mt := range textsim.All() {
		perLayer = append(perLayer, metricDef{"textsim." + mt.Name() + "_ms", "ms"})
	}
}

// phases are the session phases core.PhaseDone reports.
var phases = []string{"seed", "train", "evaluate", "select", "label"}

func (m *measured) perLayer(tr *tracer, v map[string]float64) {
	v["dataset.load_ms"] = median(tr.durations("dataset.load"))
	v["blocking.generate_ms"] = median(tr.durations("blocking.generate"))
	st := m.job.index
	v["blocking.pairs_verified"], v["blocking.pairs_kept"] = float64(st.Verified), float64(st.Kept)
	v["blocking.kept_ratio"] = float64(st.Kept) / float64(max(st.Verified, 1))
	extract := median(tr.durations("feature.extract"))
	pairs := float64(m.job.pool.Len())
	v["feature.extract_ms"], v["feature.pairs"] = extract, pairs
	v["feature.us_per_pair"] = extract * 1000 / pairs
	v["feature.extract_w1_ms"] = ms(m.extractW1)
	v["feature.fanout_speedup"] = ms(m.extractW1) / extract
	v["feature.token_pair_repeat"] = m.tokenRepeat
	for name, d := range m.metricPass {
		v["textsim."+name+"_ms"] = ms(d)
	}

	// Session phases: per-session totals (median over sessions), and
	// per-iteration p90 for the two phases that own iteration time.
	bySession := tr.phaseTotals(phases)
	for _, p := range phases {
		var totals []float64
		for _, t := range bySession {
			totals = append(totals, t[p])
		}
		v["core."+p+"_ms"] = median(totals)
	}
	v["core.train_ms_p90"] = quantile(tr.durations("core.train"), 0.9)
	v["core.select_ms_p90"] = quantile(tr.durations("core.select"), 0.9)
	v["core.iterations"] = median(tr.childCounts("core.session", "core.step"))

	v["model.save_ms"] = median(tr.durations("model.save"))
	v["model.load_ms"] = median(tr.durations("model.load"))
	v["model.artifact_bytes"] = float64(len(m.job.artifact))

	a := m.apply
	v["serve.score_batches"] = a.batches
	v["serve.vectors_per_batch"] = a.vectors / max(a.batches, 1)
	v["serve.shed"], v["serve.timeouts"] = a.shed, a.timeouts
	v["serve.extractor_reuse_ratio"] = a.reuseHits / max(a.reuseHits+a.reuseMiss, 1)
	v["serve.match_inner_ms_p50"] = median(msList(a.inner))
	v["match.block_ms"] = median(msList(m.replayBlock))
	v["match.featurize_ms"] = median(msList(m.replayFeat))
	v["match.predict_ms"] = median(msList(m.replayPred))
	v["loadgen.sent"] = float64(len(a.lag))
	v["serve.match_overhead_ms_p50"] = median(msList(a.overhead))
	v["loadgen.lag_ms_p99"] = quantile(msList(a.lag), 0.99)

	v["trace.overhead_pct"] = (median(msList(m.ttm))/median(msList(m.untraced)) - 1) * 100
	v["trace.layer_coverage"] = median(tr.jobCoverage())
}

// tokenPairRepeat is the ratio of whitespace token pairs compared
// within an attribute across the pool to the distinct such pairs: how
// often a token-pair similarity memo would be hit.
func tokenPairRepeat(d *dataset.Dataset, pool *core.Pool) float64 {
	ids := map[string]uint64{}
	intern := func(v string) []uint64 {
		var out []uint64
		for _, t := range strings.Fields(strings.ToLower(v)) {
			id, ok := ids[t]
			if !ok {
				id = uint64(len(ids))
				ids[t] = id
			}
			out = append(out, id)
		}
		return out
	}
	seen := map[uint64]struct{}{}
	total := 0
	for _, p := range pool.Pairs {
		l, r := d.Left.Rows[p.L], d.Right.Rows[p.R]
		for a := range l.Values {
			rt := intern(r.Values[a])
			for _, x := range intern(l.Values[a]) {
				for _, y := range rt {
					seen[x<<32|y] = struct{}{}
					total++
				}
			}
		}
	}
	return float64(total) / float64(max(len(seen), 1))
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/alem/alem/internal/match"
)

// An almserve process built from the sources under test, and the
// open-loop load generator the serve-mix workload drives it with.

// server is a running almserve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// logDone closes once the process's stderr reaches EOF.
	logDone chan struct{}
	mu      sync.Mutex
	log     []string
}

// startServer launches bin serving the artifact at path on a free
// loopback port and returns once it answers /healthz with a model.
func startServer(bin, path string) (*server, error) {
	cmd := exec.Command(bin, "-model", path, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log = append(s.log, line)
			s.mu.Unlock()
			if _, a, ok := strings.Cut(line, " listening on "); ok {
				select {
				case addr <- "http://" + strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case s.base = <-addr:
	case <-s.logDone:
		s.stop()
		return nil, fmt.Errorf("almserve exited before listening: %s", s.lastLog())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("almserve did not start within 60s: %s", s.lastLog())
	}
	resp, err := http.Get(s.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) lastLog() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log[max(0, len(s.log)-3):], " | ")
}

// stop asks the server to drain and exit, kills it if it has not
// within the drain budget, and waits for the process.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.logDone:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.logDone
	}
	return s.cmd.Wait()
}

// peakRSSMB reads the server's peak resident set size (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	return procPeakRSSMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

func procPeakRSSMB(statusPath string) (float64, error) {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", statusPath)
}

// scrape reads the server's Prometheus text exposition into a map from
// series (name plus label set) to value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out, nil
}

// delta sums after−before over every series whose name and labels
// start with prefix.
func delta(before, after map[string]float64, prefix string) float64 {
	d := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

const (
	routeScore = "/v1/score"
	routeMatch = "/v1/match"
)

// arrival is one scheduled request: its route, which input it carries
// and when it is due, relative to the start of the load.
type arrival struct {
	route string
	input int
	due   time.Duration
}

// schedule lays out fixed-rate arrivals of both routes over d, merged
// in due order; the seed only rotates which inputs are sent first.
func schedule(scoreRate, matchRate float64, d time.Duration, seed int64) []arrival {
	var out []arrival
	add := func(route string, rate float64, inputs int) {
		if rate <= 0 {
			return
		}
		gap := time.Duration(float64(time.Second) / rate)
		for i := 0; time.Duration(i)*gap < d; i++ {
			out = append(out, arrival{route: route, input: (i + int(seed)) % inputs, due: time.Duration(i) * gap})
		}
	}
	add(routeScore, scoreRate, scoreSets)
	add(routeMatch, matchRate, tableSets)
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// outcome is what one request saw.
type outcome struct {
	status          int
	err             error
	body            []byte
	due, sent, done time.Time
}

// openLoop sends every arrival when it is due over at most conns
// connections. A request due while every connection is busy waits for
// one; its latency still runs from the due time, so a stall shows in
// every request it delays. Once the schedule is exhausted, or stop is
// closed, nothing more is issued (unsent arrivals keep a zero outcome)
// and openLoop returns when every sent request has been answered.
func openLoop(client *http.Client, base string, r *requests, plan []arrival, conns int, stop <-chan struct{}, tr *tracer) []outcome {
	out := make([]outcome, len(plan))
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				a := plan[i]
				body := r.scoreBodies[a.input]
				if a.route == routeMatch {
					body = r.matchBodies[a.input]
				}
				o := &out[i]
				o.due, o.sent = t0.Add(a.due), time.Now()
				o.status, o.body, o.err = post(client, base+a.route, body)
				o.done = time.Now()
				tr.record(0, "serve"+strings.ReplaceAll(a.route, "/", "."), o.sent, o.done)
			}
		}()
	}
dispatch:
	for i, a := range plan {
		select {
		case <-stop:
			break dispatch
		case <-time.After(time.Until(t0.Add(a.due))):
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// serveLoad drives the open-loop mix at srv for d and checks every
// answer against the in-process reference. Client counts are reconciled
// with the server's own /metrics deltas: a request the server counted
// but the client did not see answered, or a non-2xx the client missed,
// is a failure.
func serveLoad(ctx context.Context, srv *server, r *requests, w workload, d time.Duration, conns int, seed int64, tr *tracer) (*applyResult, error) {
	client := newClient(conns)
	defer client.CloseIdleConnections()
	before, err := scrape(client, srv.base)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	plan := schedule(w.scoreRate, w.matchRate, d, seed)
	outs := openLoop(client, srv.base, r, plan, conns, ctx.Done(), tr)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := scrape(client, srv.base)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}

	res := &applyResult{}
	sent := map[string]float64{}
	ok := map[string]float64{}
	for i, o := range outs {
		a := plan[i]
		res.attempted++
		sent[a.route]++
		res.lag = append(res.lag, o.sent.Sub(o.due))
		lat := o.done.Sub(o.due)
		if a.route == routeScore {
			res.score = append(res.score, lat)
		} else {
			res.match = append(res.match, lat)
		}
		if o.err != nil || o.status/100 != 2 {
			res.fail("%s #%d: status %d, err %v: %.200s", a.route, i, o.status, o.err, o.body)
			continue
		}
		ok[a.route]++
		if err := checkAnswer(r, a, o.body, res, o.done.Sub(o.sent)); err != nil {
			res.fail("%s #%d: %v", a.route, i, err)
		}
	}
	for _, route := range []string{routeScore, routeMatch} {
		all := delta(before, after, fmt.Sprintf(`alem_http_requests_total{route="%s"`, route))
		good := delta(before, after, fmt.Sprintf(`alem_http_requests_total{route="%s",code="2`, route))
		if n := int(math.Abs(all-sent[route]) + math.Abs(good-ok[route])); n > 0 {
			res.fail("%s: client sent %v (%v ok) but the server counted %v (%v 2xx)", route, sent[route], ok[route], all, good)
			res.failed += n - 1
		}
	}
	res.batches = delta(before, after, "alem_score_batches_total")
	res.vectors = delta(before, after, "alem_score_vectors_total")
	res.shed = delta(before, after, "alem_http_requests_shed_total")
	res.timeouts = delta(before, after, "alem_http_request_timeouts_total")
	res.reuseHits = delta(before, after, "alem_matcher_extractor_reuse_hits_total")
	res.reuseMiss = delta(before, after, "alem_matcher_extractor_reuse_misses_total")
	if res.timeouts > 0 {
		res.fail("server counted %v request timeouts", res.timeouts)
	}
	return res, nil
}

// newClient returns a client that opens at most conns connections and
// never gives up on a request before the run is over.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
}

// scoreTraffic offers the workload's score requests to srv on one
// connection until stop is closed, and returns how many it sent and how
// many of those failed.
func scoreTraffic(srv *server, r *requests, w workload, seed int64, stop <-chan struct{}) (sent, failed int) {
	client := newClient(1)
	defer client.CloseIdleConnections()
	plan := schedule(w.scoreRate, 0, 10*time.Minute, seed)
	for _, o := range openLoop(client, srv.base, r, plan, 1, stop, nil) {
		if o.sent.IsZero() {
			continue
		}
		sent++
		if o.err != nil || o.status/100 != 2 {
			failed++
		}
	}
	return sent, failed
}

// checkAnswer compares one 2xx body with the in-process reference: the
// scores and verdicts match.Score and Predict give on the same artifact
// and vectors, or the pairs and confidences Matcher.Match gives on the
// same tables. A match answer's own elapsed_ms is kept as the time spent
// inside the handler; wire is the client's time from send to answer.
func checkAnswer(r *requests, a arrival, body []byte, res *applyResult, wire time.Duration) error {
	if a.route == routeScore {
		var got struct {
			Scores  []float64 `json:"scores"`
			Matches []bool    `json:"matches"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !slices.Equal(got.Scores, r.wantScores[a.input]) || !slices.Equal(got.Matches, r.wantMatches[a.input]) {
			return fmt.Errorf("scores differ from in-process match.Score")
		}
		return nil
	}
	var got struct {
		Pairs []struct {
			LeftID     string  `json:"left_id"`
			RightID    string  `json:"right_id"`
			Confidence float64 `json:"confidence"`
		} `json:"pairs"`
		Candidates int     `json:"candidates"`
		ElapsedMS  float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	pairs := make([]match.Pair, len(got.Pairs))
	for i, p := range got.Pairs {
		pairs[i] = match.Pair{LeftID: p.LeftID, RightID: p.RightID, Confidence: p.Confidence}
	}
	inner := time.Duration(got.ElapsedMS * float64(time.Millisecond))
	res.inner = append(res.inner, inner)
	res.overhead = append(res.overhead, wire-inner)
	if got.Candidates != len(r.candidates[a.input]) || !slices.Equal(pairs, r.wantPairs[a.input]) {
		return fmt.Errorf("pairs differ from in-process Matcher.Match")
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the id of the enclosing span,
// 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op returning span id 0, so the
// measured code is the same in both runs apart from the recording.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its id.
func (t *tracer) record(parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)),
	})
	return id
}

// open starts a span whose end is not known yet; close finishes it.
// Children recorded in between can name it as their parent.
func (t *tracer) open(parent int, name string) int {
	now := time.Now()
	return t.record(parent, name, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := ms(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// durations returns the durations in ms of every span with the given
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans as JSON lines, one per span, after a header
// line carrying the run metadata.
func (t *tracer) write(path string, meta any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseTotals sums each session's phase spans (phase → step → session)
// per phase; one map per session, in session order.
func (t *tracer) phaseTotals(names []string) []map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	index := map[int]int{}
	var out []map[string]float64
	for _, s := range t.spans {
		if s.Name == "core.session" {
			index[s.ID] = len(out)
			out = append(out, map[string]float64{})
		}
	}
	for _, s := range t.spans {
		name, ok := strings.CutPrefix(s.Name, "core.")
		if !ok || !slices.Contains(names, name) || s.Parent == 0 {
			continue
		}
		if i, ok := index[t.spans[s.Parent-1].Parent]; ok {
			out[i][name] += s.ms()
		}
	}
	return out
}

// childCounts returns, per span named parent, how many children named
// child it has.
func (t *tracer) childCounts(parent, child string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name == parent {
			counts[s.ID] = 0
			order = append(order, s.ID)
		}
	}
	for _, s := range t.spans {
		if _, ok := counts[s.Parent]; ok && s.Name == child {
			counts[s.Parent]++
		}
	}
	out := make([]float64, len(order))
	for i, id := range order {
		out[i] = counts[id]
	}
	return out
}

// jobCoverage returns, per traced job, the share of its wall time that
// the layer spans under it account for: blocking, featurization, pool
// assembly, the session phases and the artifact save.
func (t *tracer) jobCoverage() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	jobOf := func(id int) int {
		for id != 0 {
			s := t.spans[id-1]
			if s.Name == "job" {
				return s.ID
			}
			id = s.Parent
		}
		return 0
	}
	layer := map[string]bool{"blocking.generate": true, "feature.extract": true, "core.pool": true, "model.save": true}
	for _, p := range phases {
		layer["core."+p] = true
	}
	covered := map[int]float64{}
	for _, s := range t.spans {
		if layer[s.Name] {
			if j := jobOf(s.Parent); j != 0 {
				covered[j] += s.ms()
			}
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == "job" {
			out = append(out, covered[s.ID]/s.ms())
		}
	}
	return out
}

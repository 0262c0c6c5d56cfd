package core

// Shared test fixtures for the core package: the synthetic pool every
// engine test trains on, the throwaway oracle over its truth, and the
// session constructor with fatal-on-error ergonomics. Kept in one file
// so the scenario tests (run, session, snapshot, chaos, golden grid)
// build on identical data instead of drifting copies.

import (
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// syntheticPool builds a learnable pool: matches cluster near high
// similarity, non-matches near low, with an ambiguous band in between.
func syntheticPool(n int, seed int64) *Pool {
	r := rand.New(rand.NewSource(seed))
	X := make([]feature.Vector, 0, n)
	truth := make([]bool, 0, n)
	for i := 0; i < n; i++ {
		match := r.Float64() < 0.2
		var base float64
		if match {
			base = 0.7 + r.Float64()*0.3
		} else {
			base = r.Float64() * 0.45
		}
		v := make(feature.Vector, 8)
		for j := range v {
			v[j] = clamp01(base + r.Float64()*0.2 - 0.1)
		}
		X = append(X, v)
		truth = append(truth, match)
	}
	return NewPoolFromVectors(X, truth)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// poolDataset wraps a Pool's truth in a throwaway dataset so any
// dataset-backed oracle (perfect, noisy, simulated-LLM) can label it.
func poolDataset(p *Pool) *dataset.Dataset {
	l := &dataset.Table{Rows: make([]dataset.Record, p.Len())}
	rt := &dataset.Table{Rows: make([]dataset.Record, p.Len())}
	var matches []dataset.PairKey
	for i, t := range p.Truth {
		if t {
			matches = append(matches, p.Pairs[i])
		}
	}
	return dataset.NewDataset("pool", l, rt, matches, 0)
}

// poolOracle adapts a Pool's truth to the oracle interface.
func poolOracle(p *Pool) oracle.Oracle {
	return oracle.NewPerfect(poolDataset(p))
}

// perPairAdapters are the two ways a per-pair labeler enters the engine.
var perPairAdapters = []struct {
	name string
	lift func(oracle.Oracle) oracle.BatchOracle
}{
	{"Batched", func(o oracle.Oracle) oracle.BatchOracle { return oracle.Batched(o) }},
	{"BatchOf", func(o oracle.Oracle) oracle.BatchOracle { return resilience.BatchOf(resilience.Wrap(o)) }},
}

func svmFactory(seed int64) Learner { return linear.NewSVM(seed) }

// mustSession builds a Session over the pool's own truth oracle,
// failing the test on config errors.
func mustSession(t *testing.T, pool *Pool, l Learner, sel Selector, cfg Config) *Session {
	t.Helper()
	s, err := NewSession(pool, l, sel, poolOracle(pool), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

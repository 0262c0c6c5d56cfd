package blocking

import (
	"context"
	"math/rand"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

// TestCandidatesKnownCacheAcrossAdds exercises the cached left-side
// known-id mapping through every transition that can (in)validate it:
// repeated Candidates calls on a static index, an Add that interns new
// tokens (dictionary grows, cache must rebuild), and an Add whose
// tokens are all already interned (dictionary size unchanged, cache
// stays live). Every enumeration must match brute force exactly.
func TestCandidatesKnownCacheAcrossAdds(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	threshold := 0.34
	left := hotVocabTable(r, 30, "L")
	right := hotVocabTable(r, 35, "R")
	d := dataset.NewDataset("cache", left, right, nil, threshold)
	idx := NewCandidateIndex(d, IndexOptions{Threshold: threshold, Shards: 2})
	if err := idx.Build(context.Background()); err != nil {
		t.Fatal(err)
	}

	check := func(label string, want []dataset.PairKey) {
		t.Helper()
		got, err := idx.Candidates(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEqual(t, label, got.Pairs, want)
	}
	want := bruteForceOrdered(d, threshold)
	check("initial", want)
	check("cached repeat", want)

	// A record whose tokens all exist already: the dictionary does not
	// grow and the cache survives untouched.
	dup := dataset.Record{ID: "Rdup", Values: []string{right.Rows[0].Values[0]}}
	right.Rows = append(right.Rows, dup)
	if _, err := idx.Add(context.Background(), dup); err != nil {
		t.Fatal(err)
	}
	want = bruteForceOrdered(d, threshold)
	check("after same-vocabulary add", want)

	// A record introducing brand-new tokens — including one a left
	// record already uses ("kappa") that was unknown until now, the case
	// a stale cache would get wrong.
	left.Rows = append(left.Rows, dataset.Record{ID: "Lnew", Values: []string{"kappa lambda"}})
	d2 := dataset.NewDataset("cache2", left, right, nil, threshold)
	idx2 := NewCandidateIndex(d2, IndexOptions{Threshold: threshold, Shards: 2})
	if err := idx2.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, err := idx2.Candidates(context.Background()); err != nil {
		t.Fatal(err)
	} else {
		assertPairsEqual(t, "pre-add", got.Pairs, bruteForceOrdered(d2, threshold))
	}
	novel := dataset.Record{ID: "Rnew", Values: []string{"kappa lambda mu"}}
	right.Rows = append(right.Rows, novel)
	if _, err := idx2.Add(context.Background(), novel); err != nil {
		t.Fatal(err)
	}
	got, err := idx2.Candidates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, "after new-token add", got.Pairs, bruteForceOrdered(d2, threshold))
	found := false
	for _, p := range got.Pairs {
		if d2.Left.Rows[p.L].ID == "Lnew" && d2.Right.Rows[p.R].ID == "Rnew" {
			found = true
		}
	}
	if !found {
		t.Fatal("pair (Lnew, Rnew) missing: cached known-id mapping went stale after Add interned new tokens")
	}
}

// TestCandidatesAllocSteadyState ratchets the per-call allocations of a
// warmed Candidates enumeration: with the left known-id mapping cached
// and the stamp arrays pooled, a repeat call allocates only the output
// structures (per-left pair slices and the assembled result) plus fixed
// scheduling overhead — nothing proportional to token counts.
func TestCandidatesAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation behaviour differs under the race detector")
	}
	r := rand.New(rand.NewSource(42))
	threshold := 0.34
	d := dataset.NewDataset("alloc", hotVocabTable(r, 40, "L"), hotVocabTable(r, 40, "R"), nil, threshold)
	idx := NewCandidateIndex(d, IndexOptions{Threshold: threshold, Shards: 2, Workers: 1})
	if err := idx.Build(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := idx.Candidates(ctx); err != nil { // warm cache and pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := idx.Candidates(ctx); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: one right-sized pairs slice per productive left record,
	// the perLeft table, the result assembly and par.Chunks machinery.
	// The pre-cache path added a stamps array plus a known-ids mapping
	// and sort per left record per call, and grew every pairs slice by
	// repeated append.
	nL := len(d.Left.Rows)
	budget := float64(nL + 24)
	t.Logf("Candidates steady-state allocs/call = %.1f (budget %.0f, %d left records)", allocs, budget, nL)
	if allocs > budget {
		t.Fatalf("warmed Candidates allocates %.1f per call, ratchet budget %.0f", allocs, budget)
	}
}

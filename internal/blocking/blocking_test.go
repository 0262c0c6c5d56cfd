package blocking

import (
	"context"
	"fmt"
	"testing"

	"github.com/alem/alem/internal/dataset"
)

// tinyDataset builds a two-table dataset with one clear match, one near
// match and one clear non-match.
func tinyDataset(threshold float64) *dataset.Dataset {
	schema := []string{"name", "descr"}
	left := &dataset.Table{Name: "l", Schema: schema, Rows: []dataset.Record{
		{ID: "L0", Values: []string{"sonixx wireless speaker", "portable bluetooth audio system"}},
		{ID: "L1", Values: []string{"veltron digital camera", "compact zoom lens kit"}},
		{ID: "L2", Values: []string{"quantix mechanical keyboard", "rgb backlit gaming keys"}},
	}}
	right := &dataset.Table{Name: "r", Schema: schema, Rows: []dataset.Record{
		{ID: "R0", Values: []string{"sonixx wireless speaker", "portable bluetooth audio"}},
		{ID: "R1", Values: []string{"veltron camera digital", "zoom kit"}},
		{ID: "R2", Values: []string{"maxtor office shredder", "heavy duty paper cutter"}},
	}}
	matches := []dataset.PairKey{{L: 0, R: 0}, {L: 1, R: 1}}
	return dataset.NewDataset("tiny", left, right, matches, threshold)
}

// block runs the indexed generator over d in one shot, the path the pool
// constructors take; threshold 0 means the dataset's own.
func block(t *testing.T, d *dataset.Dataset, threshold float64) *Result {
	t.Helper()
	res, err := Generate(context.Background(), NewCandidateIndex(d, IndexOptions{Threshold: threshold}))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBlockKeepsMatchesDropsNonMatches(t *testing.T) {
	d := tinyDataset(0.2)
	res := block(t, d, 0)
	has := func(p dataset.PairKey) bool {
		for _, q := range res.Pairs {
			if q == p {
				return true
			}
		}
		return false
	}
	if !has(dataset.PairKey{L: 0, R: 0}) {
		t.Error("blocking dropped exact-overlap match (0,0)")
	}
	if !has(dataset.PairKey{L: 1, R: 1}) {
		t.Error("blocking dropped fuzzy match (1,1)")
	}
	if has(dataset.PairKey{L: 2, R: 2}) {
		t.Error("blocking kept token-disjoint pair (2,2)")
	}
	if res.MatchesKept != 2 || res.MatchesTotal != 2 {
		t.Errorf("MatchesKept/Total = %d/%d, want 2/2", res.MatchesKept, res.MatchesTotal)
	}
}

func TestBlockThresholdMonotone(t *testing.T) {
	d := tinyDataset(0.2)
	loose := block(t, d, 0.05)
	tight := block(t, d, 0.6)
	if len(tight.Pairs) > len(loose.Pairs) {
		t.Errorf("tighter threshold yielded more pairs: %d > %d",
			len(tight.Pairs), len(loose.Pairs))
	}
}

func TestBlockThresholdOne(t *testing.T) {
	d := tinyDataset(0.2)
	res := block(t, d, 1.0)
	for _, p := range res.Pairs {
		l, r := d.PairText(p)
		if l != r {
			// Token sets must be identical at threshold 1; texts can
			// differ in order, so compare via the pair's own survival.
			t.Logf("pair %v: %q vs %q", p, l, r)
		}
	}
	// Only the (0,0)-style near-identical pair can survive; (1,1) differs.
	for _, p := range res.Pairs {
		if p == (dataset.PairKey{L: 1, R: 1}) {
			t.Error("threshold 1.0 kept a pair with differing token sets")
		}
	}
}

func TestBlockDeterministic(t *testing.T) {
	d, err := dataset.Load("beer", 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := block(t, d, 0)
	b := block(t, d, 0)
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatalf("non-deterministic pair count: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair %d differs: %v vs %v", i, a.Pairs[i], b.Pairs[i])
		}
	}
}

func TestBlockSmallProfiles(t *testing.T) {
	// The three small Magellan datasets should block to a few hundred
	// pairs with skew in a plausible band and keep almost all matches.
	for _, name := range []string{"amazon-bestbuy", "beer", "baby-products"} {
		name := name
		t.Run(name, func(t *testing.T) {
			d, err := dataset.Load(name, 1.0, 42)
			if err != nil {
				t.Fatal(err)
			}
			res := block(t, d, 0)
			if len(res.Pairs) == 0 {
				t.Fatal("no post-blocking pairs")
			}
			kept := float64(res.MatchesKept) / float64(res.MatchesTotal)
			if kept < 0.9 {
				t.Errorf("blocking kept only %.0f%% of matches", kept*100)
			}
			skew := res.Skew(d)
			if skew < 0.03 || skew > 0.6 {
				t.Errorf("skew %.3f outside plausible band", skew)
			}
		})
	}
}

// TestCalibrationReport prints paper-vs-generated statistics for every
// profile. Run with: go test ./internal/blocking -run Calibration -v
// Skipped in -short mode; it exists to keep profile constants honest.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short mode")
	}
	for _, p := range dataset.Profiles() {
		d, err := dataset.Load(p.Name, 1.0, 42)
		if err != nil {
			t.Fatal(err)
		}
		res := block(t, d, 0)
		fmt.Printf("%-16s total=%9d post-block=%7d (paper %6d)  skew=%.3f (paper %.3f)  matches kept=%d/%d\n",
			p.Name, d.TotalPairs(), len(res.Pairs), p.Paper.PostBlockingPairs,
			res.Skew(d), p.Paper.ClassSkew, res.MatchesKept, res.MatchesTotal)
	}
}

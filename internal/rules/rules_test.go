package rules

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
)

// boolVec converts a bit pattern to the 0/1 feature.Vector the model
// consumes.
func boolVec(bits ...int) feature.Vector {
	v := make(feature.Vector, len(bits))
	for i, b := range bits {
		v[i] = float64(b)
	}
	return v
}

// singleAtomData: atom 0 perfectly separates the classes; atoms 1, 2 are
// noise.
func singleAtomData() ([]feature.Vector, []bool) {
	X := []feature.Vector{
		boolVec(1, 0, 1), boolVec(1, 1, 0), boolVec(1, 0, 0), boolVec(1, 1, 1),
		boolVec(0, 1, 1), boolVec(0, 0, 1), boolVec(0, 1, 0), boolVec(0, 0, 0),
	}
	y := []bool{true, true, true, true, false, false, false, false}
	return X, y
}

func testExtractor() *feature.BoolExtractor {
	return feature.NewBoolExtractor([]string{"name"})
}

func TestModelLearnsSingleAtom(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y)
	if len(m.Rules()) == 0 {
		t.Fatal("no rules learned on separable data")
	}
	for i, x := range X {
		if m.Predict(x) != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", x, m.Predict(x), y[i])
		}
	}
	// One atom suffices.
	if m.NumAtoms() != 1 {
		t.Errorf("NumAtoms = %d, want 1 (concise rule)", m.NumAtoms())
	}
}

func TestModelLearnsDisjunction(t *testing.T) {
	// Positives satisfy atom 0 OR atom 1; negatives neither.
	X := []feature.Vector{
		boolVec(1, 0, 0), boolVec(1, 0, 1), boolVec(0, 1, 0), boolVec(0, 1, 1),
		boolVec(0, 0, 1), boolVec(0, 0, 0), boolVec(0, 0, 1), boolVec(0, 0, 0),
	}
	y := []bool{true, true, true, true, false, false, false, false}
	m := NewModel(testExtractor())
	m.Train(X, y)
	if len(m.Rules()) < 2 {
		t.Fatalf("rules = %d, want >= 2 (disjunction)", len(m.Rules()))
	}
	for i, x := range X {
		if m.Predict(x) != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", x, m.Predict(x), y[i])
		}
	}
}

func TestModelLearnsConjunction(t *testing.T) {
	// Positive iff atoms 0 AND 1 both hold.
	X := []feature.Vector{
		boolVec(1, 1, 0), boolVec(1, 1, 1),
		boolVec(1, 0, 0), boolVec(0, 1, 1), boolVec(0, 0, 0), boolVec(1, 0, 1),
	}
	y := []bool{true, true, false, false, false, false}
	m := NewModel(testExtractor())
	m.Train(X, y)
	for i, x := range X {
		if m.Predict(x) != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", x, m.Predict(x), y[i])
		}
	}
}

func TestModelPrecisionGate(t *testing.T) {
	// No atom reaches 0.99 precision; with a strict gate nothing should
	// be learned.
	X := []feature.Vector{
		boolVec(1), boolVec(1), boolVec(1), boolVec(1),
		boolVec(1), boolVec(0), boolVec(0), boolVec(0),
	}
	y := []bool{true, true, true, false, false, false, false, false}
	m := NewModel(testExtractor())
	m.MinPrecision = 0.99
	m.Train(X, y)
	if len(m.Rules()) != 0 {
		t.Errorf("learned %d rules despite precision gate", len(m.Rules()))
	}
	if m.Predict(boolVec(1)) {
		t.Error("empty DNF must predict non-match")
	}
}

func TestModelEmptyTraining(t *testing.T) {
	m := NewModel(testExtractor())
	m.Train(nil, nil)
	if m.Predict(boolVec(1, 1, 1)) {
		t.Error("untrained model predicted match")
	}
	if m.NumAtoms() != 0 {
		t.Error("untrained model has atoms")
	}
	if got := m.String(); got != "<empty DNF>" {
		t.Errorf("String = %q", got)
	}
}

func TestModelString(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y)
	s := m.String()
	if !strings.Contains(s, ">=") {
		t.Errorf("String() = %q, want rendered atoms", s)
	}
}

func TestSelectLFPPicksLowSimilarityPredictedMatches(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y) // DNF = atom0
	// Unlabeled pool: two predicted matches, one with low overall
	// similarity (the LFP), plus clear non-matches.
	pool := []feature.Vector{
		boolVec(1, 1, 1), // predicted match, high sim
		boolVec(1, 0, 0), // predicted match, LOW sim -> LFP first
		boolVec(0, 0, 0), // non-match, not covered by rule-minus (single-atom rule)
	}
	idx := []int{0, 1, 2}
	sel := m.SelectLFPLFN(pool, idx, 2)
	if len(sel) == 0 {
		t.Fatal("no examples selected")
	}
	if sel[0] != 1 {
		t.Errorf("first selection = %d, want 1 (lowest-similarity predicted match)", sel[0])
	}
}

func TestSelectLFNViaRuleMinus(t *testing.T) {
	// Conjunction atoms {0,1}. An example with atom0 only is covered by
	// the rule-minus (drop atom1) and has moderate similarity -> LFN.
	X := []feature.Vector{
		boolVec(1, 1, 0), boolVec(1, 1, 1),
		boolVec(1, 0, 0), boolVec(0, 1, 1), boolVec(0, 0, 0), boolVec(1, 0, 1),
	}
	y := []bool{true, true, false, false, false, false}
	m := NewModel(testExtractor())
	m.Train(X, y)
	pool := []feature.Vector{
		boolVec(1, 0, 1), // rule-minus covered (atom0 holds, atom1 dropped)
		boolVec(0, 0, 0), // nothing
	}
	sel := m.SelectLFPLFN(pool, []int{0, 1}, 2)
	found := false
	for _, s := range sel {
		if s == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("rule-minus candidate not selected: %v", sel)
	}
	for _, s := range sel {
		if s == 1 {
			t.Error("selected an example covered by neither DNF nor rule-minus")
		}
	}
}

func TestSelectLFPLFNEmptyOnNoCandidates(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y)
	pool := []feature.Vector{boolVec(0, 1, 1), boolVec(0, 0, 1)}
	if sel := m.SelectLFPLFN(pool, []int{0, 1}, 5); len(sel) != 0 {
		t.Errorf("selected %v from a pool with no LFPs/LFNs (termination condition)", sel)
	}
	// Untrained model also selects nothing.
	m2 := NewModel(testExtractor())
	if sel := m2.SelectLFPLFN(pool, []int{0, 1}, 5); len(sel) != 0 {
		t.Errorf("untrained model selected %v", sel)
	}
}

func TestModelOnGeneratedDataset(t *testing.T) {
	// End-to-end sanity: rules learned on a clean publication dataset
	// should reach decent training F1.
	d, err := dataset.Load("dblp-acm", 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	ext := feature.NewBoolExtractor(d.Left.Schema)
	pairs := d.Matches()
	// Add an equal number of non-matching pairs.
	neg := 0
	for l := 0; l < len(d.Left.Rows) && neg < len(pairs); l++ {
		for r := 0; r < len(d.Right.Rows) && neg < len(pairs); r++ {
			p := dataset.PairKey{L: l, R: r}
			if !d.IsMatch(p) {
				pairs = append(pairs, p)
				neg++
			}
		}
	}
	X := make([]feature.Vector, len(pairs))
	y := make([]bool, len(pairs))
	for i, p := range pairs {
		X[i] = ext.Extract(d.Left.Rows[p.L], d.Right.Rows[p.R])
		y[i] = d.IsMatch(p)
	}
	m := NewModel(ext)
	m.Train(X, y)
	if len(m.Rules()) == 0 {
		t.Fatal("no rules learned on dblp-acm sample")
	}
	tp, fp, fn := 0, 0, 0
	for i, x := range X {
		pred := m.Predict(x)
		switch {
		case pred && y[i]:
			tp++
		case pred && !y[i]:
			fp++
		case !pred && y[i]:
			fn++
		}
	}
	f1 := 2 * float64(tp) / float64(2*tp+fp+fn)
	if f1 < 0.6 {
		t.Errorf("training F1 = %.3f, want >= 0.6 on a clean dataset", f1)
	}
}

// TestDNFMonotonicity: the model is a MONOTONE DNF — turning an atom
// from false to true can never flip a prediction from match to
// non-match.
func TestDNFMonotonicity(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y)
	r := rand.New(rand.NewSource(8))
	prop := func(bits uint8) bool {
		x := boolVec(int(bits>>0&1), int(bits>>1&1), int(bits>>2&1))
		if !m.Predict(x) {
			return true
		}
		// Raise a random false coordinate to true; prediction must stay.
		up := append(feature.Vector(nil), x...)
		idx := r.Intn(len(up))
		up[idx] = 1
		return m.Predict(up)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrainIdempotent(t *testing.T) {
	// Training twice on the same data yields the same DNF (greedy cover
	// is deterministic).
	X, y := singleAtomData()
	a := NewModel(testExtractor())
	a.Train(X, y)
	s1 := a.String()
	a.Train(X, y)
	if a.String() != s1 {
		t.Errorf("retraining changed the DNF:\n%s\nvs\n%s", s1, a.String())
	}
}

func TestMaxAtomsHonored(t *testing.T) {
	// Force a long conjunction need: positives require atoms 0..4 all set.
	var X []feature.Vector
	var y []bool
	for i := 0; i < 32; i++ {
		v := boolVec(i&1, (i>>1)&1, (i>>2)&1, (i>>3)&1, (i>>4)&1)
		X = append(X, v)
		y = append(y, i == 31)
	}
	m := NewModel(testExtractor())
	m.MaxAtoms = 2
	m.MinPrecision = 0 // accept whatever precision the cap allows
	m.Train(X, y)
	for _, r := range m.Rules() {
		if len(r.Atoms) > 2 {
			t.Fatalf("rule %v exceeds MaxAtoms=2", r.Atoms)
		}
	}
}

func TestMinPrecisionZeroLearnsSomething(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.MinPrecision = 0
	m.Train(X, y)
	if len(m.Rules()) == 0 {
		t.Error("MinPrecision=0 learned nothing on separable data")
	}
}

func TestSelectLFPLFNCancelAbortsScoring(t *testing.T) {
	X, y := singleAtomData()
	m := NewModel(testExtractor())
	m.Train(X, y) // DNF = atom0
	pool := []feature.Vector{
		boolVec(1, 1, 1), boolVec(1, 0, 0), boolVec(0, 0, 0),
	}
	idx := []int{0, 1, 2}
	// Sanity: without cancellation this pool yields candidates.
	if sel := m.SelectLFPLFNCancel(pool, idx, 2, nil); len(sel) == 0 {
		t.Fatal("uncancelled selection returned nothing")
	}
	if sel := m.SelectLFPLFNCancel(pool, idx, 2, func() bool { return false }); len(sel) == 0 {
		t.Fatal("selection with a live context returned nothing")
	}
	// A cancellation that has already fired aborts with a nil batch
	// before any example is scored.
	if sel := m.SelectLFPLFNCancel(pool, idx, 2, func() bool { return true }); sel != nil {
		t.Fatalf("cancelled selection returned %v, want nil", sel)
	}
}

package model

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/alem/alem/internal/blocking"
	"github.com/alem/alem/internal/core"
	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/linear"
	"github.com/alem/alem/internal/match"
	"github.com/alem/alem/internal/neural"
	"github.com/alem/alem/internal/rules"
	"github.com/alem/alem/internal/textsim"
	"github.com/alem/alem/internal/tree"
)

// fixture is a blocked + featurized beer instance shared across tests.
type fixture struct {
	d     *dataset.Dataset
	pairs []dataset.PairKey
	X     []feature.Vector // standard 21-metric vectors
	Xb    []feature.Vector // Boolean atom vectors as 0/1 floats
	y     []bool
}

var (
	fixOnce sync.Once
	fix     fixture
)

func beerFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		d, err := dataset.Load("beer", 1.0, 11)
		if err != nil {
			panic(err)
		}
		res, err := blocking.Generate(context.Background(),
			blocking.NewCandidateIndex(d, blocking.IndexOptions{}))
		if err != nil {
			panic(err)
		}
		ext := feature.NewExtractor(d.Left.Schema)
		X := ext.ExtractPairs(d, res.Pairs)
		Xb := feature.NewBoolExtractor(d.Left.Schema).ExtractPairs(d, res.Pairs)
		y := make([]bool, len(res.Pairs))
		for i, p := range res.Pairs {
			y[i] = d.IsMatch(p)
		}
		fix = fixture{d: d, pairs: res.Pairs, X: X, Xb: Xb, y: y}
	})
	return &fix
}

// roundTrip saves and reloads a learner, then checks the reloaded
// artifact reproduces the original's predictions on the training pool.
func roundTrip(t *testing.T, l core.Learner, meta Meta, wantKind Kind, X []feature.Vector) *Artifact {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, l, meta); err != nil {
		t.Fatalf("Save: %v", err)
	}
	a, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if a.Kind != wantKind {
		t.Errorf("kind = %q, want %q", a.Kind, wantKind)
	}
	if a.Meta.BlockThreshold != meta.BlockThreshold {
		t.Errorf("block threshold = %v, want %v", a.Meta.BlockThreshold, meta.BlockThreshold)
	}
	if a.Meta.Features != meta.Features {
		t.Errorf("featurization = %v, want %v", a.Meta.Features, meta.Features)
	}
	if len(a.Meta.Schema) != len(meta.Schema) {
		t.Errorf("schema = %v, want %v", a.Meta.Schema, meta.Schema)
	}
	want := l.PredictAll(X)
	got := a.Learner.PredictAll(X)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d diverged after round trip: %v vs %v", i, want[i], got[i])
		}
	}
	return a
}

func TestRoundTripSVM(t *testing.T) {
	fx := beerFixture(t)
	svm := linear.NewSVM(11)
	svm.Train(fx.X, fx.y)
	meta := Meta{Schema: fx.d.Left.Schema, BlockThreshold: fx.d.BlockThreshold,
		Dataset: "beer", Labels: len(fx.y)}
	a := roundTrip(t, svm, meta, KindSVM, fx.X)
	if a.Meta.Dataset != "beer" || a.Meta.Labels != len(fx.y) {
		t.Errorf("provenance lost: %+v", a.Meta)
	}
	if a.Dim != len(fx.X[0]) {
		t.Errorf("dim = %d, want %d", a.Dim, len(fx.X[0]))
	}
}

func TestRoundTripNeuralNet(t *testing.T) {
	fx := beerFixture(t)
	net := neural.NewNet(8, 11)
	net.Train(fx.X, fx.y)
	meta := Meta{Schema: fx.d.Left.Schema, BlockThreshold: fx.d.BlockThreshold}
	roundTrip(t, net, meta, KindNeuralNet, fx.X)
}

func TestRoundTripRandomForest(t *testing.T) {
	fx := beerFixture(t)
	f := tree.NewForest(10, 11)
	f.Train(fx.X, fx.y)
	meta := Meta{Schema: fx.d.Left.Schema, BlockThreshold: fx.d.BlockThreshold}
	a := roundTrip(t, f, meta, KindRandomForest, fx.X)

	// The artifact alone must produce a working matcher on fresh tables.
	fresh, err := dataset.Load("beer", 1.0, 12)
	if err != nil {
		t.Fatal(err)
	}
	pairs, candidates, err := a.Matcher().Match(context.Background(), fresh.Left, fresh.Right)
	if err != nil {
		t.Fatal(err)
	}
	if candidates == 0 || len(pairs) == 0 {
		t.Errorf("artifact matcher predicted %d of %d candidates", len(pairs), candidates)
	}
}

func TestRoundTripRules(t *testing.T) {
	fx := beerFixture(t)
	bext := feature.NewBoolExtractor(fx.d.Left.Schema)
	m := rules.NewModel(bext)
	m.Train(fx.Xb, fx.y)
	if len(m.Rules()) == 0 {
		t.Skip("no rules learned on this fixture")
	}
	meta := Meta{Schema: fx.d.Left.Schema, BlockThreshold: fx.d.BlockThreshold,
		Features: match.BoolFeatures}
	roundTrip(t, m, meta, KindRules, fx.Xb)

	// Rules demand bool featurization; saving them as float must fail.
	var buf bytes.Buffer
	if err := Save(&buf, m, Meta{Schema: fx.d.Left.Schema}); err == nil {
		t.Error("Save accepted a rule model with float featurization")
	}
}

func TestRoundTripExtendedCorpus(t *testing.T) {
	fx := beerFixture(t)
	corpus := feature.CorpusOf(fx.d)
	ext := feature.NewExtendedExtractor(fx.d.Left.Schema, corpus)
	X := ext.ExtractPairs(fx.d, fx.pairs)
	svm := linear.NewSVM(11)
	svm.Train(X, fx.y)

	meta := Meta{Schema: fx.d.Left.Schema, BlockThreshold: fx.d.BlockThreshold,
		Features: match.ExtendedFeatures, Corpus: corpus}
	a := roundTrip(t, svm, meta, KindSVM, X)
	if a.Meta.Corpus == nil {
		t.Fatal("corpus lost in round trip")
	}
	// The restored corpus must weight tokens identically: re-extract with
	// it and compare vectors. Tolerance, not equality — TF-IDF cosine
	// accumulates over map iteration order, so even back-to-back
	// extractions with the same corpus differ in the last ulps.
	ext2 := feature.NewExtendedExtractor(fx.d.Left.Schema, a.Meta.Corpus)
	X2 := ext2.ExtractPairs(fx.d, fx.pairs)
	for i := range X {
		for j := range X[i] {
			if diff := X[i][j] - X2[i][j]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("vector %d dim %d: %v != %v after corpus round trip", i, j, X[i][j], X2[i][j])
			}
		}
	}
	if a.Meta.Corpus.NumDocs() != corpus.NumDocs() {
		t.Errorf("corpus docs = %d, want %d", a.Meta.Corpus.NumDocs(), corpus.NumDocs())
	}

	// Extended without a corpus is rejected at save time.
	var buf bytes.Buffer
	err := Save(&buf, svm, Meta{Schema: fx.d.Left.Schema, Features: match.ExtendedFeatures})
	if err == nil {
		t.Error("Save accepted extended featurization without a corpus")
	}
}

func TestSaveRejectsDimMismatch(t *testing.T) {
	fx := beerFixture(t)
	svm := linear.NewSVM(1)
	svm.Train([]feature.Vector{{1, 0}, {0, 1}}, []bool{true, false})
	var buf bytes.Buffer
	err := Save(&buf, svm, Meta{Schema: fx.d.Left.Schema})
	if err == nil {
		t.Fatal("Save accepted a learner whose dim contradicts the schema")
	}
	if !strings.Contains(err.Error(), "2-dim") {
		t.Errorf("error %q does not name the trained dimensionality", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "not json at all",
		"wrong format":  `{"format":"something-else","version":1}`,
		"wrong version": `{"format":"alem-model","version":99}`,
		"no schema":     `{"format":"alem-model","version":1,"kind":"linear-svm","featurization":"float","learner":{}}`,
		"bad kind":      `{"format":"alem-model","version":1,"kind":"nope","schema":["a"],"featurization":"float","dim":21,"learner":{}}`,
		"bad feats":     `{"format":"alem-model","version":1,"kind":"linear-svm","schema":["a"],"featurization":"nope","dim":21,"learner":{}}`,
	}
	for name, raw := range cases {
		if _, err := Load(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: Load accepted %q", name, raw)
		}
	}
}

// TestLoadErrorsAreTypedInvalidArtifact pins the contract the serving
// registry's hot-swap path depends on: every way an artifact can fail
// to load — truncated mid-stream, garbage, drifted pipeline — surfaces
// through the single typed ErrInvalidArtifact sentinel, so callers can
// distinguish "the offered model is bad" from I/O faults with errors.Is
// instead of string matching. And a rejected Load returns a nil
// artifact: there is no partially-applied model to leak into serving.
func TestLoadErrorsAreTypedInvalidArtifact(t *testing.T) {
	fx := beerFixture(t)
	svm := linear.NewSVM(11)
	svm.Train(fx.X, fx.y)
	var buf bytes.Buffer
	if err := Save(&buf, svm, Meta{Schema: fx.d.Left.Schema}); err != nil {
		t.Fatal(err)
	}
	valid := strings.TrimRight(buf.String(), "\n")

	cases := map[string]string{
		"truncated early":     valid[:10],
		"truncated mid-body":  valid[:len(valid)/2],
		"truncated last byte": valid[:len(valid)-1],
		"garbage":             "\x00\xffnot a model at all",
		"wrong format":        `{"format":"something-else","version":1}`,
		"wrong version":       `{"format":"alem-model","version":99}`,
		"no schema":           `{"format":"alem-model","version":1,"kind":"linear-svm","featurization":"float","learner":{}}`,
		"unknown kind":        `{"format":"alem-model","version":1,"kind":"nope","schema":["a"],"featurization":"float","dim":21,"learner":{}}`,
		"learner garbage":     strings.Replace(valid, `"learner"`, `"learner_gone"`, 1),
	}
	for name, raw := range cases {
		art, err := Load(strings.NewReader(raw))
		if err == nil {
			t.Errorf("%s: Load accepted the artifact", name)
			continue
		}
		if !errors.Is(err, ErrInvalidArtifact) {
			t.Errorf("%s: error %v does not wrap ErrInvalidArtifact", name, err)
		}
		if art != nil {
			t.Errorf("%s: rejected Load returned a non-nil artifact", name)
		}
	}
}

// TestLoadRejectsDriftedMetricSet guards the self-description: if the
// build's metric pipeline no longer reproduces the artifact's recorded
// dims/metrics, loading must fail instead of mispredicting.
func TestLoadRejectsDriftedMetricSet(t *testing.T) {
	fx := beerFixture(t)
	svm := linear.NewSVM(11)
	svm.Train(fx.X, fx.y)
	var buf bytes.Buffer
	if err := Save(&buf, svm, Meta{Schema: fx.d.Left.Schema}); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), `"dim": `+itoa(len(fx.X[0])), `"dim": 7`, 1)
	if tampered == buf.String() {
		t.Fatal("tampering failed; envelope layout changed?")
	}
	if _, err := Load(strings.NewReader(tampered)); err == nil {
		t.Error("Load accepted an artifact whose dim does not match the pipeline")
	}
}

func itoa(n int) string {
	var b []byte
	if n == 0 {
		return "0"
	}
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// corpusJSONRoundTrip exercises the textsim corpus persistence directly.
func TestCorpusJSONRoundTrip(t *testing.T) {
	c := textsim.NewCorpus([]string{"pale ale brewery", "ipa brewery", "stout"})
	var buf bytes.Buffer
	data, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(data)
	var c2 textsim.Corpus
	if err := c2.UnmarshalJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, tok := range []string{"brewery", "ipa", "unseen-token"} {
		if c.IDF(tok) != c2.IDF(tok) {
			t.Errorf("IDF(%q) = %v, want %v", tok, c2.IDF(tok), c.IDF(tok))
		}
	}
}

package textsim

import (
	"math"
	"testing"
)

func testCorpus() *Corpus {
	return NewCorpus([]string{
		"sonixx wireless speaker black",
		"sonixx wired speaker black",
		"sonixx compact camera black",
		"veltron zx9 camera black",
		"quantix keyboard black",
		"sonixx subwoofer black",
	})
}

func TestCorpusStats(t *testing.T) {
	c := testCorpus()
	if c.NumDocs() != 6 {
		t.Fatalf("NumDocs = %d, want 6", c.NumDocs())
	}
	// "black" appears in every doc; "zx9" in one; unseen tokens max out.
	if !(c.IDF("black") < c.IDF("speaker")) {
		t.Error("ubiquitous token should have lower IDF than mid-frequency token")
	}
	if !(c.IDF("zx9") > c.IDF("sonixx")) {
		t.Error("rare token should have higher IDF than frequent brand")
	}
	if !(c.IDF("neverseen") >= c.IDF("zx9")) {
		t.Error("unseen token should have maximal IDF")
	}
}

func TestTFIDFCosineDownweightsStopTokens(t *testing.T) {
	c := testCorpus()
	m := TFIDFCosine{Corpus: c}
	plain := Cosine{}
	// Two records sharing only the ubiquitous token "black": TF-IDF
	// should score them much lower than plain cosine does.
	a, b := "quantix keyboard black", "veltron zx9 camera black"
	if m.Compare(a, b) >= plain.Compare(a, b) {
		t.Errorf("TFIDF %.3f should be below plain cosine %.3f on stop-token overlap",
			m.Compare(a, b), plain.Compare(a, b))
	}
	// Identical strings still score 1.
	if s := m.Compare(a, a); math.Abs(s-1) > 1e-12 {
		t.Errorf("TFIDF self-similarity = %v", s)
	}
	if s := m.Compare("", ""); s != 1 {
		t.Errorf("TFIDF empty/empty = %v", s)
	}
	if s := m.Compare(a, ""); s != 0 {
		t.Errorf("TFIDF vs empty = %v", s)
	}
}

func TestTFIDFCosineNilCorpusFallsBack(t *testing.T) {
	m := TFIDFCosine{}
	if m.Compare("a b", "a b") != (Cosine{}).Compare("a b", "a b") {
		t.Error("nil-corpus TFIDF should fall back to plain cosine")
	}
}

func TestSoftTFIDFToleratesTypos(t *testing.T) {
	c := testCorpus()
	soft := SoftTFIDF{Corpus: c}
	hard := TFIDFCosine{Corpus: c}
	// Typo in the discriminative token: soft matching keeps the score up.
	a, b := "sonixx wireless speaker", "sonix wireless speaker"
	if soft.Compare(a, b) <= hard.Compare(a, b) {
		t.Errorf("SoftTFIDF %.3f should exceed exact TFIDF %.3f under typos",
			soft.Compare(a, b), hard.Compare(a, b))
	}
	if s := soft.Compare(a, a); s < 0.999 {
		t.Errorf("SoftTFIDF self-similarity = %v", s)
	}
	// Symmetry.
	if d := soft.Compare(a, b) - soft.Compare(b, a); math.Abs(d) > 1e-12 {
		t.Errorf("SoftTFIDF asymmetric by %v", d)
	}
}

func TestNumericSim(t *testing.T) {
	n := NumericSim{}
	if s := n.Compare("100", "100.00"); s != 1 {
		t.Errorf("equal values = %v, want 1", s)
	}
	if s := n.Compare("$100", "90"); math.Abs(s-0.9) > 1e-9 {
		t.Errorf("100 vs 90 = %v, want 0.9", s)
	}
	if s := n.Compare("100", "-100"); s != 0 {
		t.Errorf("opposite signs = %v, want 0 (clamped)", s)
	}
	if s := n.Compare("0", "0"); s != 1 {
		t.Errorf("zero vs zero = %v, want 1", s)
	}
	// Non-numeric falls back to string similarity.
	if s := n.Compare("call for price", "call for price"); s != 1 {
		t.Errorf("non-numeric identical = %v, want 1", s)
	}
	if s := n.Compare("abc", "xyz"); s != 0 {
		t.Errorf("non-numeric disjoint = %v, want 0", s)
	}
	// ParseFloat accepts NaN and Inf spellings; they must not reach the
	// relative-difference arithmetic (found by FuzzMetrics).
	for _, p := range [][2]string{{"NAN", "0"}, {"Inf", "1"}, {"inf", "-Infinity"}, {"nan", "nan"}} {
		want := Levenshtein{}.Compare(p[0], p[1])
		if s := n.Compare(p[0], p[1]); s != want {
			t.Errorf("%q vs %q = %v, want the Levenshtein fallback %v", p[0], p[1], s, want)
		}
	}
}

func TestExtendedMetricsSatisfyInvariants(t *testing.T) {
	c := testCorpus()
	for _, m := range Extended(c) {
		for _, pair := range [][2]string{
			{"sonixx speaker", "sonixx speaker"},
			{"sonixx speaker", "veltron camera"},
			{"", ""},
			{"x", ""},
			{"49.99", "47.50"},
		} {
			s := m.Compare(pair[0], pair[1])
			if s < 0 || s > 1+1e-9 {
				t.Errorf("%s(%q,%q) = %v outside [0,1]", m.Name(), pair[0], pair[1], s)
			}
			if d := s - m.Compare(pair[1], pair[0]); math.Abs(d) > 1e-9 {
				t.Errorf("%s asymmetric on %v", m.Name(), pair)
			}
		}
	}
}

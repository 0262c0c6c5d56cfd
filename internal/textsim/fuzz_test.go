package textsim

import (
	"math"
	"testing"
	"unicode/utf8"
)

// FuzzMetrics drives every metric with arbitrary byte strings: no metric
// may panic, return NaN-like garbage, leave [0,1], or break symmetry.
// It is also the differential fuzz of the interned path: for every
// TokenSetMetric, both inputs interned against one Dict with the metric's
// InternTokenizer must score bit-identical to the string Compare.
func FuzzMetrics(f *testing.F) {
	f.Add("sonixx wireless speaker", "sonix wirelss speaker")
	f.Add("", "")
	f.Add("a", "")
	f.Add("ab", "ba")
	f.Add("ünïcødé tèxt", "unicode text")
	f.Add("$49.99", "49")
	f.Add("    ", "\t\n")
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "a")
	metrics := append(All(), GeneralizedJaccard{}, NumericSim{})
	dict := NewDict()
	f.Fuzz(func(t *testing.T, a, b string) {
		if !utf8.ValidString(a) || !utf8.ValidString(b) {
			t.Skip()
		}
		if len(a) > 256 || len(b) > 256 {
			t.Skip() // keep quadratic metrics bounded
		}
		for _, m := range metrics {
			s := m.Compare(a, b)
			if s != s { // NaN
				t.Fatalf("%s(%q,%q) = NaN", m.Name(), a, b)
			}
			if s < 0 || s > 1+1e-9 {
				t.Fatalf("%s(%q,%q) = %v outside [0,1]", m.Name(), a, b, s)
			}
			back := m.Compare(b, a)
			if diff := s - back; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s asymmetric: %v vs %v", m.Name(), s, back)
			}
			if tsm, ok := m.(TokenSetMetric); ok {
				sa, sb := GetTokenSet(), GetTokenSet()
				dict.InternValue(tsm.InternTokenizer(), a, sa)
				dict.InternValue(tsm.InternTokenizer(), b, sb)
				got := tsm.CompareTokenSets(sa, sb)
				sa.Release()
				sb.Release()
				if math.Float64bits(got) != math.Float64bits(s) {
					t.Fatalf("%s(%q,%q): CompareTokenSets=%v Compare=%v", m.Name(), a, b, got, s)
				}
			}
		}
	})
}

// FuzzTokenizers drives the tokenizers with arbitrary input.
func FuzzTokenizers(f *testing.F) {
	f.Add("hello world")
	f.Add("")
	f.Add("a-b_c.d,e")
	f.Add("ünïcødé")
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 1024 {
			t.Skip()
		}
		for _, tok := range []Tokenizer{
			Whitespace{}, QGramTokenizer{Q: 3, Pad: true}, WordShingle{N: 2},
		} {
			for _, w := range tok.Tokens(s) {
				if w == "" {
					t.Fatalf("%T produced an empty token from %q", tok, s)
				}
			}
		}
	})
}

// FuzzSoundex checks the phonetic encoder on arbitrary input.
func FuzzSoundex(f *testing.F) {
	f.Add("Robert")
	f.Add("")
	f.Add("12345")
	f.Add("Pfister-Honeyman")
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 512 {
			t.Skip()
		}
		code := soundexCode(s)
		if code == "" {
			return // no alphabetic content
		}
		if len(code) != 4 {
			t.Fatalf("soundexCode(%q) = %q, want 4 chars", s, code)
		}
		if code[0] < 'A' || code[0] > 'Z' {
			t.Fatalf("soundexCode(%q) = %q, want leading letter", s, code)
		}
		for _, c := range code[1:] {
			if c < '0' || c > '6' {
				t.Fatalf("soundexCode(%q) = %q, want digits 0-6", s, code)
			}
		}
	})
}

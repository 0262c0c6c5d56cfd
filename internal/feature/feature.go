// Package feature converts candidate record pairs into the feature vectors
// consumed by the learners (§3 "Feature Extractor").
//
// Float features: every metric in textsim.All() (21 functions) applied to
// every aligned attribute pair, giving Dim = #attrs × 21 — e.g. 63
// dimensions for Abt-Buy's 3 attributes, 189 for Cora's 9, matching the
// 62/83/188-dimension figures the paper quotes up to its dropped constant
// column.
//
// Boolean features: the rule learner supports only equality, Jaro-Winkler
// and Jaccard (§3); each is discretized over thresholds 0.1..1.0 into
// Boolean atoms of the form  sim(attr) ≥ τ.
//
// There is one featurization loop, Extractor.ExtractPairs. Token metrics
// run there on interned textsim.TokenSets (CompareTokenSets); every other
// metric runs its string Compare. BoolExtractor thresholds the output of
// an inner Extractor's ExtractPairs, so atoms take the same path.
// Extractor.Extract is the plain reference: each metric's string Compare
// per pair, which the interned path is pinned bit-identical against.
//
// If either attribute value of a pair is null the similarity evaluates to
// 0 (§3).
package feature

import (
	"fmt"
	"sort"
	"strings"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/par"
	"github.com/alem/alem/internal/textsim"
)

// Vector is a dense float feature vector.
type Vector []float64

// compiledMetric caches the interface assertion of one metric so the
// per-pair loop never type-switches: tsm is non-nil for metrics with the
// interned TokenSet fast path (tokIdx then indexes the extractor's
// tokenizer list).
type compiledMetric struct {
	m      textsim.Metric
	tsm    textsim.TokenSetMetric
	tokIdx int
}

// Extractor computes float feature vectors for record pairs.
type Extractor struct {
	schema   []string
	metrics  []textsim.Metric
	compiled []compiledMetric
	// tokenizers holds the distinct InternTokenizer()s of the interned
	// metrics; ExtractPairs builds one TokenSet per (touched attribute
	// value, tokenizer), shared by every metric declaring that tokenizer.
	tokenizers []textsim.Tokenizer
	// dict interns tokens across the extractor's lifetime, so repeated
	// ExtractPairs calls (the serving path) only pay dictionary inserts
	// for genuinely new vocabulary. Ids never influence scores, so growth
	// across calls is harmless; memory is bounded by vocabulary size.
	dict *textsim.Dict
}

func newExtractor(schema []string, metrics []textsim.Metric) *Extractor {
	e := &Extractor{schema: schema, metrics: metrics, dict: textsim.NewDict()}
	e.compiled = make([]compiledMetric, len(metrics))
	tokIdx := map[textsim.Tokenizer]int{}
	for i, m := range metrics {
		cm := compiledMetric{m: m}
		if tsm, ok := m.(textsim.TokenSetMetric); ok {
			cm.tsm = tsm
			tk := tsm.InternTokenizer()
			idx, seen := tokIdx[tk]
			if !seen {
				idx = len(e.tokenizers)
				tokIdx[tk] = idx
				e.tokenizers = append(e.tokenizers, tk)
			}
			cm.tokIdx = idx
		}
		e.compiled[i] = cm
	}
	return e
}

// NewExtractor builds the standard extractor: all 21 metrics per attribute.
func NewExtractor(schema []string) *Extractor {
	return newExtractor(schema, textsim.All())
}

// NewExtractorWithMetrics builds an extractor over a custom metric set.
func NewExtractorWithMetrics(schema []string, metrics []textsim.Metric) *Extractor {
	return newExtractor(schema, metrics)
}

// NewExtendedExtractor builds the extended extractor: the standard 21
// metrics plus the corpus-aware and numeric ones (TF-IDF cosine,
// SoftTFIDF, numeric similarity, generalized Jaccard), 25 per attribute.
// An extension beyond the paper's feature set; the ablation-features
// experiment measures its effect.
func NewExtendedExtractor(schema []string, c *textsim.Corpus) *Extractor {
	return newExtractor(schema, append(textsim.All(), textsim.Extended(c)...))
}

// CorpusOf builds the document-frequency corpus over every record of
// both tables (the statistics TF-IDF style metrics weight tokens by).
func CorpusOf(d *dataset.Dataset) *textsim.Corpus {
	docs := make([]string, 0, len(d.Left.Rows)+len(d.Right.Rows))
	for _, r := range d.Left.Rows {
		docs = append(docs, strings.Join(r.Values, " "))
	}
	for _, r := range d.Right.Rows {
		docs = append(docs, strings.Join(r.Values, " "))
	}
	return textsim.NewCorpus(docs)
}

// Dim returns the feature dimensionality: #attrs × #metrics.
func (e *Extractor) Dim() int { return len(e.schema) * len(e.metrics) }

// DimName returns a human-readable name for dimension i, e.g.
// "jaccard(name)". Blocking-dimension diagnostics (§5.1) use it.
func (e *Extractor) DimName(i int) string {
	a := i / len(e.metrics)
	m := i % len(e.metrics)
	return fmt.Sprintf("%s(%s)", e.metrics[m].Name(), e.schema[a])
}

// Extract computes the feature vector of one record pair with every
// metric's plain string Compare. It is the reference the interned
// ExtractPairs is pinned bit-identical against; pools and requests go
// through ExtractPairs.
func (e *Extractor) Extract(left, right dataset.Record) Vector {
	v := make(Vector, e.Dim())
	k := 0
	for a := range e.schema {
		lv, rv := left.Values[a], right.Values[a]
		for _, m := range e.metrics {
			if lv != "" && rv != "" {
				v[k] = m.Compare(lv, rv)
			}
			k++
		}
	}
	return v
}

// ExtractPairs featurizes a set of candidate pairs in parallel, preserving
// order. This is the one-time featurization pass that precedes active
// learning and the per-request featurization the serving layer pays.
//
// It is the interned hot path: every record attribute value touched by
// the pair set is tokenized and interned into a textsim.TokenSet exactly
// once (a record appearing in k candidate pairs historically paid k
// tokenizations per token metric), all result vectors share one flat
// float64 backing array (one allocation instead of one per pair), and
// the TokenSets are pooled. Output is bit-identical to calling Extract
// per pair — TestExtractPairsMatchesExtract pins it at worker counts
// {1, 2, 8}.
func (e *Extractor) ExtractPairs(d *dataset.Dataset, pairs []dataset.PairKey) []Vector {
	return e.ExtractPairsWorkers(d, pairs, 0)
}

// ExtractPairsWorkers is ExtractPairs with an explicit worker bound
// (zero or negative means GOMAXPROCS, one forces the serial path).
func (e *Extractor) ExtractPairsWorkers(d *dataset.Dataset, pairs []dataset.PairKey, workers int) []Vector {
	n := len(pairs)
	out := make([]Vector, n)
	if n == 0 {
		return out
	}
	dim := e.Dim()
	flat := make([]float64, n*dim)

	var leftSets, rightSets [][]*textsim.TokenSet
	nt := len(e.tokenizers)
	if nt > 0 {
		leftSets = e.internRows(d.Left, leftRowsOf(pairs, len(d.Left.Rows)), workers)
		rightSets = e.internRows(d.Right, rightRowsOf(pairs, len(d.Right.Rows)), workers)
		defer releaseRowSets(leftSets)
		defer releaseRowSets(rightSets)
	}

	par.Chunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := pairs[i]
			row := flat[i*dim : (i+1)*dim : (i+1)*dim]
			out[i] = row
			left, right := d.Left.Rows[p.L], d.Right.Rows[p.R]
			var lsets, rsets []*textsim.TokenSet
			if nt > 0 {
				lsets, rsets = leftSets[p.L], rightSets[p.R]
			}
			k := 0
			for a := range e.schema {
				lv, rv := left.Values[a], right.Values[a]
				if lv == "" || rv == "" {
					// Null semantics (§3): the flat backing is zeroed, so
					// the whole attribute block is already 0.
					k += len(e.compiled)
					continue
				}
				for ci := range e.compiled {
					cm := &e.compiled[ci]
					if cm.tsm != nil {
						row[k] = cm.tsm.CompareTokenSets(lsets[a*nt+cm.tokIdx], rsets[a*nt+cm.tokIdx])
					} else {
						row[k] = cm.m.Compare(lv, rv)
					}
					k++
				}
			}
		}
	})
	return out
}

// leftRowsOf / rightRowsOf collect the distinct row indices a pair set
// touches on each side, in ascending order.
func leftRowsOf(pairs []dataset.PairKey, n int) []int {
	return distinctRows(pairs, n, func(p dataset.PairKey) int { return p.L })
}

func rightRowsOf(pairs []dataset.PairKey, n int) []int {
	return distinctRows(pairs, n, func(p dataset.PairKey) int { return p.R })
}

func distinctRows(pairs []dataset.PairKey, n int, side func(dataset.PairKey) int) []int {
	seen := make([]bool, n)
	rows := make([]int, 0, min(n, len(pairs)))
	for _, p := range pairs {
		if r := side(p); !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	sort.Ints(rows)
	return rows
}

// internRows tokenizes and interns each needed row's attribute values
// once per tokenizer, in parallel over the row list; sets[r] is indexed
// [attr*len(tokenizers)+tokIdx]. Empty values get nil sets; the
// extraction loop never consults them (null attributes short-circuit).
func (e *Extractor) internRows(t *dataset.Table, rows []int, workers int) [][]*textsim.TokenSet {
	sets := make([][]*textsim.TokenSet, len(t.Rows))
	nt := len(e.tokenizers)
	par.Chunks(len(rows), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := rows[i]
			rs := make([]*textsim.TokenSet, len(e.schema)*nt)
			for a := range e.schema {
				v := t.Rows[r].Values[a]
				if v == "" {
					continue
				}
				for ti, tok := range e.tokenizers {
					ts := textsim.GetTokenSet()
					e.dict.InternValue(tok, v, ts)
					rs[a*nt+ti] = ts
				}
			}
			sets[r] = rs
		}
	})
	return sets
}

func releaseRowSets(sets [][]*textsim.TokenSet) {
	for _, rs := range sets {
		for _, ts := range rs {
			if ts != nil {
				ts.Release()
			}
		}
	}
}

// Atom is one Boolean rule predicate: Metric(Attr) ≥ Threshold (§3, §6.3).
type Atom struct {
	Attr      string
	Metric    string
	Threshold float64
}

// String renders the atom the way the paper prints rules, e.g.
// "JaccardSim(name) >= 0.4".
func (a Atom) String() string {
	return fmt.Sprintf("%s(%s) >= %.1f", a.Metric, a.Attr, a.Threshold)
}

// BoolExtractor computes Boolean atom vectors for the rule learner. The
// similarities come from an inner float Extractor over the rule metrics,
// so atoms share the interned ExtractPairs path; each similarity is then
// thresholded into one 0/1 coordinate per threshold.
type BoolExtractor struct {
	ext        *Extractor
	thresholds []float64
}

// NewBoolExtractor builds the rule-learner extractor: the three supported
// metrics discretized on thresholds 0.1, 0.2, ..., 1.0. The inner
// extractor is built here, not lazily, because a match.Matcher shares
// one BoolExtractor across serving goroutines.
func NewBoolExtractor(schema []string) *BoolExtractor {
	ths := make([]float64, 0, 10)
	for t := 1; t <= 10; t++ {
		ths = append(ths, float64(t)/10)
	}
	return &BoolExtractor{ext: newExtractor(schema, textsim.ForRules()), thresholds: ths}
}

// Dim returns #attrs × #metrics × #thresholds.
func (e *BoolExtractor) Dim() int {
	return e.ext.Dim() * len(e.thresholds)
}

// Atom describes Boolean dimension i.
func (e *BoolExtractor) Atom(i int) Atom {
	nt := len(e.thresholds)
	sim := i / nt // index into the inner extractor's vector
	a := sim / len(e.ext.metrics)
	m := sim % len(e.ext.metrics)
	return Atom{Attr: e.ext.schema[a], Metric: e.ext.metrics[m].Name(), Threshold: e.thresholds[i%nt]}
}

// Extract computes the 0/1 atom vector of one record pair from the inner
// extractor's reference Extract. Atoms over null attributes are 0
// (similarity 0 never reaches a threshold).
func (e *BoolExtractor) Extract(left, right dataset.Record) Vector {
	out := make(Vector, e.Dim())
	e.atoms(out, e.ext.Extract(left, right))
	return out
}

// ExtractPairs featurizes candidate pairs into 0/1 atom vectors,
// preserving order: the inner extractor's ExtractPairs computes the
// similarities, and the atom vectors share one flat backing array.
func (e *BoolExtractor) ExtractPairs(d *dataset.Dataset, pairs []dataset.PairKey) []Vector {
	sims := e.ext.ExtractPairs(d, pairs)
	dim := e.Dim()
	flat := make([]float64, len(sims)*dim)
	out := make([]Vector, len(sims))
	for i, s := range sims {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		e.atoms(out[i], s)
	}
	return out
}

// atoms sets dst[k] to 1 for every atom sim ≥ τ that holds; dst must be
// zeroed and hold len(sims) × #thresholds coordinates.
func (e *BoolExtractor) atoms(dst, sims Vector) {
	k := 0
	for _, s := range sims {
		for _, th := range e.thresholds {
			if s >= th {
				dst[k] = 1
			}
			k++
		}
	}
}

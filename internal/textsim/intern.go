package textsim

import (
	"math"
	"slices"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Token interning: tokenize each record once, map its tokens to dense
// int32 ids against a shared dictionary, and run the token-set metrics
// on sorted id/count pairs instead of per-pair string maps. The feature
// extractor applies ~10 token metrics per attribute pair; before
// interning, every one of them folded both token slices into freshly
// allocated map[string]int / map[string]struct{} values per pair. The
// interned representation computes the identical integer intersection,
// union and count statistics with merge walks over sorted []int32, which
// allocate nothing.
//
// Scores are bit-identical to the string path by construction: every
// statistic the metrics consume (intersection sizes, multiplicity dot
// products, token counts) is an integer that does not depend on id
// assignment, and the final float expressions are verbatim the same.
// TestTokenSetMetricEquivalence pins this for every metric.

// Dict interns token strings to dense int32 ids. It is safe for
// concurrent use; ids are assigned in first-Intern order, but no score
// depends on id values, so concurrent interning never changes results.
type Dict struct {
	mu  sync.RWMutex
	ids map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[string]int32)} }

// Len returns the number of interned tokens.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.ids)
}

// Intern returns the id of t, assigning the next dense id on first sight.
func (d *Dict) Intern(t string) int32 {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return id
	}
	id = int32(len(d.ids))
	d.ids[t] = id
	return id
}

// internBytes is Intern for a byte-slice view of a token. The map reads
// convert without allocating; only inserting a brand-new token copies b
// into a string key.
func (d *Dict) internBytes(b []byte) int32 {
	d.mu.RLock()
	id, ok := d.ids[string(b)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	id = int32(len(d.ids))
	d.ids[string(b)] = id
	return id
}

// TokenSet is the interned form of one attribute value's token multiset:
// everything a TokenSetMetric needs, computed once per record instead of
// once per candidate pair. Build one with Dict.InternValue (or
// InternTokens / InternQGrams directly); reuse via GetTokenSet/Release.
// Two TokenSets are only comparable when interned against the same Dict.
type TokenSet struct {
	// Toks holds the tokens in occurrence order (Monge-Elkan walks it,
	// Identity compares it). The q-gram interning path leaves it empty —
	// gram metrics consume only IDs/Counts.
	Toks []string
	// Distinct holds the distinct tokens in first-seen order, mirroring
	// setSlice — generalized Jaccard's greedy soft matching is order
	// sensitive, so the interned path must present tokens identically.
	Distinct []string
	// DistinctIDs and DistinctCounts are the interned id and multiplicity
	// of each Distinct token, aligned with Distinct (the TF-IDF metrics
	// accumulate weights in first-seen order for determinism).
	DistinctIDs    []int32
	DistinctCounts []int32
	// IDs holds the distinct interned ids in ascending order, and Counts
	// the aligned multiplicities; together they are the multiset.
	IDs    []int32
	Counts []int32

	n     int     // total token count (with duplicates)
	idseq []int32 // per-token ids in occurrence order (Identity walks it)
	taken []bool  // scratch: per-distinct first-seen marks
}

// Len returns the total token count (with duplicates), matching
// len(tokens) on the string path.
func (ts *TokenSet) Len() int { return ts.n }

var tokenSetPool = sync.Pool{New: func() any { return new(TokenSet) }}

// GetTokenSet borrows a TokenSet from the package pool.
func GetTokenSet() *TokenSet { return tokenSetPool.Get().(*TokenSet) }

// Release returns ts to the pool. The caller must not touch ts (or any
// slice read from it) afterwards; the next borrower overwrites it.
func (ts *TokenSet) Release() { tokenSetPool.Put(ts) }

// InternTokens fills ts from a token slice produced by the Whitespace
// tokenizer (or any tokenizer — the ids are dictionary-relative). It
// reuses ts's backing arrays, so a pooled TokenSet reaches zero
// steady-state allocations.
func (d *Dict) InternTokens(toks []string, ts *TokenSet) {
	ts.Toks = append(ts.Toks[:0], toks...)
	ts.idseq = ts.idseq[:0]
	for _, t := range toks {
		ts.idseq = append(ts.idseq, d.Intern(t))
	}
	ts.n = len(toks)
	ts.finishMultiset()
	// Distinct tokens in first-seen order: mark each id's slot in the
	// sorted IDs the first time its token appears.
	w := len(ts.IDs)
	if cap(ts.taken) < w {
		ts.taken = make([]bool, w)
	}
	ts.taken = ts.taken[:w]
	clear(ts.taken)
	ts.Distinct = ts.Distinct[:0]
	ts.DistinctIDs = ts.DistinctIDs[:0]
	ts.DistinctCounts = ts.DistinctCounts[:0]
	for i, t := range ts.Toks {
		slot := searchInt32(ts.IDs, ts.idseq[i])
		if !ts.taken[slot] {
			ts.taken[slot] = true
			ts.Distinct = append(ts.Distinct, t)
			ts.DistinctIDs = append(ts.DistinctIDs, ts.IDs[slot])
			ts.DistinctCounts = append(ts.DistinctCounts, ts.Counts[slot])
		}
	}
}

// finishMultiset sorts a copy of the interned id sequence and run-length
// encodes it into the (id, count) multiset representation.
func (ts *TokenSet) finishMultiset() {
	ts.IDs = append(ts.IDs[:0], ts.idseq...)
	sortInt32(ts.IDs)
	ts.Counts = ts.Counts[:0]
	w := 0
	for r := 0; r < len(ts.IDs); r++ {
		if w > 0 && ts.IDs[r] == ts.IDs[w-1] {
			ts.Counts[w-1]++
			continue
		}
		ts.IDs[w] = ts.IDs[r]
		ts.Counts = append(ts.Counts, 1)
		w++
	}
	ts.IDs = ts.IDs[:w]
}

// InternQGrams interns the q-gram token multiset of s into ts without
// materializing the gram strings: the lowered, padded form of s is built
// once in a pooled byte buffer and each gram is looked up in the
// dictionary through a byte-slice view (the compiler elides the string
// conversion on map reads), so only a gram's first-ever sighting across
// the dictionary's lifetime allocates its key. The gram multiset is
// exactly QGramTokenizer{Q: q, Pad: pad}.Tokens(s) —
// TestInternQGramsMatchesTokens pins the representation — but ts.Toks
// and ts.Distinct are left empty: the gram metrics (QGram, SimonWhite)
// consume only the id/count multiset.
func (d *Dict) InternQGrams(s string, q int, pad bool, ts *TokenSet) {
	if q <= 0 {
		q = 3
	}
	p := 0
	if pad {
		p = q - 1
	}
	sc := getScratch()
	defer putScratch(sc)
	// Build the lowered, padded byte form, tracking rune-start offsets in
	// an int scratch row (offs has one extra entry pointing past the end).
	bs := sc.bs[:0]
	offs := sc.ia[:0]
	for i := 0; i < p; i++ {
		offs = append(offs, len(bs))
		bs = append(bs, '#')
	}
	n0 := len(bs)
	for _, c := range s {
		offs = append(offs, len(bs))
		bs = utf8.AppendRune(bs, unicode.ToLower(c))
	}
	if len(bs) == n0 {
		// Empty input: no padding either, matching the tokenizer's
		// behaviour of padding only non-empty strings.
		bs, offs = bs[:0], offs[:0]
	} else {
		for i := 0; i < p; i++ {
			offs = append(offs, len(bs))
			bs = append(bs, '$')
		}
	}
	offs = append(offs, len(bs))
	sc.bs, sc.ia = bs, offs

	runes := len(offs) - 1
	ts.Toks = ts.Toks[:0]
	ts.Distinct = ts.Distinct[:0]
	ts.DistinctIDs = ts.DistinctIDs[:0]
	ts.DistinctCounts = ts.DistinctCounts[:0]
	ts.idseq = ts.idseq[:0]
	if runes == 0 {
		ts.n = 0
		ts.IDs, ts.Counts = ts.IDs[:0], ts.Counts[:0]
		return
	}
	if runes < q {
		// Shorter than one gram: the whole string is the single token.
		ts.idseq = append(ts.idseq, d.internBytes(bs))
		ts.n = 1
		ts.finishMultiset()
		return
	}
	for i := 0; i+q <= runes; i++ {
		ts.idseq = append(ts.idseq, d.internBytes(bs[offs[i]:offs[i+q]]))
	}
	ts.n = runes - q + 1
	ts.finishMultiset()
}

// InternValue tokenizes s with tok and interns the result into ts,
// routing q-gram tokenizers through the gram-string-free fast path.
func (d *Dict) InternValue(tok Tokenizer, s string, ts *TokenSet) {
	if qt, ok := tok.(QGramTokenizer); ok {
		d.InternQGrams(s, qt.Q, qt.Pad, ts)
		return
	}
	d.InternTokens(tok.Tokens(s), ts)
}

// sortInt32 sorts ascending; small inputs (the common case: one
// attribute value's distinct tokens) use insertion sort, larger ones the
// generic sort — both allocation-free.
func sortInt32(a []int32) {
	if len(a) <= 24 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	slices.Sort(a)
}

// searchInt32 returns the index of v in ascending-sorted a; v must be
// present.
func searchInt32(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectDistinct returns |A∩B| over the distinct ids of two sets.
func intersectDistinct(a, b *TokenSet) int {
	i, j, n := 0, 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// multisetL1 returns the L1 distance Σ|count_a(t) - count_b(t)| between
// the two multisets.
func multisetL1(a, b *TokenSet) int {
	diff := 0
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			diff += int(a.Counts[i])
			i++
		case a.IDs[i] > b.IDs[j]:
			diff += int(b.Counts[j])
			j++
		default:
			diff += abs(int(a.Counts[i]) - int(b.Counts[j]))
			i++
			j++
		}
	}
	for ; i < len(a.IDs); i++ {
		diff += int(a.Counts[i])
	}
	for ; j < len(b.IDs); j++ {
		diff += int(b.Counts[j])
	}
	return diff
}

// multisetIntersect returns Σ min(count_a(t), count_b(t)), the multiset
// intersection size.
func multisetIntersect(a, b *TokenSet) int {
	inter := 0
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			inter += min(int(a.Counts[i]), int(b.Counts[j]))
			i++
			j++
		}
	}
	return inter
}

// findInt32 returns the index of v in ascending-sorted a, or -1.
func findInt32(a []int32, v int32) int {
	lo := searchInt32(a, v)
	if lo < len(a) && a[lo] == v {
		return lo
	}
	return -1
}

// TokenSetMetric is the interned fast path: metrics that can score a
// pair from the two records' interned TokenSets, with no per-pair token
// processing at all. CompareTokenSets must be bit-identical to Compare
// when the sets were interned from InternTokenizer()'s tokens of the raw
// values — TestTokenSetMetricEquivalence pins every implementation.
type TokenSetMetric interface {
	Metric
	// InternTokenizer returns the tokenizer whose token multiset
	// CompareTokenSets consumes; the batch extractor interns one TokenSet
	// per (attribute value, tokenizer), shared by all metrics that
	// declare that tokenizer.
	InternTokenizer() Tokenizer
	CompareTokenSets(a, b *TokenSet) float64
}

// InternTokenizer implements TokenSetMetric for the word-token metrics.
func (Jaccard) InternTokenizer() Tokenizer             { return Whitespace{} }
func (Dice) InternTokenizer() Tokenizer                { return Whitespace{} }
func (Cosine) InternTokenizer() Tokenizer              { return Whitespace{} }
func (Overlap) InternTokenizer() Tokenizer             { return Whitespace{} }
func (MatchingCoefficient) InternTokenizer() Tokenizer { return Whitespace{} }
func (BlockDistance) InternTokenizer() Tokenizer       { return Whitespace{} }
func (Euclidean) InternTokenizer() Tokenizer           { return Whitespace{} }
func (MongeElkan) InternTokenizer() Tokenizer          { return Whitespace{} }
func (GeneralizedJaccard) InternTokenizer() Tokenizer  { return Whitespace{} }
func (Identity) InternTokenizer() Tokenizer            { return Whitespace{} }

// InternTokenizer implements TokenSetMetric: the gram metrics consume
// character q-gram profiles rather than word tokens.
func (QGram) InternTokenizer() Tokenizer      { return QGramTokenizer{Q: 3, Pad: true} }
func (SimonWhite) InternTokenizer() Tokenizer { return QGramTokenizer{Q: 2, Pad: false} }

// CompareTokenSets implements TokenSetMetric. The normalized forms
// Identity.Compare checks are equal iff the token sequences are equal
// elementwise (tokens never contain spaces, so the space-join is
// injective); the interned id sequence decides that without touching
// the strings.
func (Identity) CompareTokenSets(a, b *TokenSet) float64 {
	if len(a.idseq) != len(b.idseq) {
		return 0
	}
	for i, id := range a.idseq {
		if id != b.idseq[i] {
			return 0
		}
	}
	return 1
}

// CompareTokenSets implements TokenSetMetric over padded trigram
// profiles; the L1 statistic is an integer, so the merge walk is
// bit-identical to the historical map fold.
func (QGram) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return 1 - float64(multisetL1(a, b))/float64(a.Len()+b.Len())
}

// CompareTokenSets implements TokenSetMetric over unpadded bigram
// profiles (quantitative Dice).
func (SimonWhite) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return 2 * float64(multisetIntersect(a, b)) / float64(a.Len()+b.Len())
}

// CompareTokenSets implements TokenSetMetric.
func (Jaccard) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	inter := intersectDistinct(a, b)
	union := len(a.IDs) + len(b.IDs) - inter
	return float64(inter) / float64(union)
}

// CompareTokenSets implements TokenSetMetric.
func (Dice) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	inter := intersectDistinct(a, b)
	return 2 * float64(inter) / float64(len(a.IDs)+len(b.IDs))
}

// CompareTokenSets implements TokenSetMetric.
func (Overlap) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	inter := intersectDistinct(a, b)
	return float64(inter) / float64(min(len(a.IDs), len(b.IDs)))
}

// CompareTokenSets implements TokenSetMetric.
func (MatchingCoefficient) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	inter := intersectDistinct(a, b)
	return float64(inter) / float64(max(len(a.IDs), len(b.IDs)))
}

// CompareTokenSets implements TokenSetMetric. The dot product and norms
// are integer sums, so accumulating them over the sorted merge instead
// of map iteration order changes nothing: integer-valued float64 sums
// are exact and therefore order-independent.
func (Cosine) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	var dot, na, nb float64
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			na += float64(int(a.Counts[i]) * int(a.Counts[i]))
			i++
		case a.IDs[i] > b.IDs[j]:
			nb += float64(int(b.Counts[j]) * int(b.Counts[j]))
			j++
		default:
			dot += float64(int(a.Counts[i]) * int(b.Counts[j]))
			na += float64(int(a.Counts[i]) * int(a.Counts[i]))
			nb += float64(int(b.Counts[j]) * int(b.Counts[j]))
			i++
			j++
		}
	}
	for ; i < len(a.IDs); i++ {
		na += float64(int(a.Counts[i]) * int(a.Counts[i]))
	}
	for ; j < len(b.IDs); j++ {
		nb += float64(int(b.Counts[j]) * int(b.Counts[j]))
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// CompareTokenSets implements TokenSetMetric.
func (BlockDistance) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return 1 - float64(multisetL1(a, b))/float64(a.Len()+b.Len())
}

// CompareTokenSets implements TokenSetMetric.
func (Euclidean) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	var dd, na, nb float64
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			x := int(a.Counts[i])
			dd += float64(x * x)
			na += float64(x * x)
			i++
		case a.IDs[i] > b.IDs[j]:
			y := int(b.Counts[j])
			dd += float64(y * y)
			nb += float64(y * y)
			j++
		default:
			x, y := int(a.Counts[i]), int(b.Counts[j])
			d := x - y
			dd += float64(d * d)
			na += float64(x * x)
			nb += float64(y * y)
			i++
			j++
		}
	}
	for ; i < len(a.IDs); i++ {
		x := int(a.Counts[i])
		dd += float64(x * x)
		na += float64(x * x)
	}
	for ; j < len(b.IDs); j++ {
		y := int(b.Counts[j])
		dd += float64(y * y)
		nb += float64(y * y)
	}
	denom := math.Sqrt(na) + math.Sqrt(nb)
	if denom == 0 {
		return 1
	}
	return 1 - math.Sqrt(dd)/denom
}

// CompareTokenSets implements TokenSetMetric. Monge-Elkan consumes the
// token strings themselves (its inner metric is Jaro-Winkler), so the
// interned win here is only the amortized tokenization.
func (MongeElkan) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return (mongeElkanDirected(a.Toks, b.Toks) + mongeElkanDirected(b.Toks, a.Toks)) / 2
}

// CompareTokenSets implements TokenSetMetric. The greedy soft matching
// walks Distinct, which preserves the string path's first-seen order.
func (g GeneralizedJaccard) CompareTokenSets(a, b *TokenSet) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	return (softJaccardDirected(a.Distinct, b.Distinct) + softJaccardDirected(b.Distinct, a.Distinct)) / 2
}

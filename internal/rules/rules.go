// Package rules implements the benchmark's rule-based learner (§4.3,
// after Qian et al.): entity-matching rules expressed as monotone DNF
// formulas — disjunctions of conjunctive rules over Boolean atoms of the
// form sim(attr) ≥ τ — learned greedily to high precision, together with
// the Likely-False-Positive / Likely-False-Negative example-selection
// heuristic.
//
// Rule models consume the 0/1 vectors produced by feature.BoolExtractor:
// a coordinate ≥ 0.5 means the corresponding atom holds.
package rules

import (
	"sort"
	"strings"

	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/par"
)

// Rule is a conjunction of atoms, identified by Boolean feature indices.
type Rule struct {
	Atoms []int
}

// Covers reports whether x satisfies every atom of the rule. An empty
// rule covers everything.
func (r Rule) Covers(x feature.Vector) bool {
	for _, a := range r.Atoms {
		if x[a] < 0.5 {
			return false
		}
	}
	return true
}

// Model is a monotone DNF classifier: an example matches if any learned
// conjunctive rule covers it.
type Model struct {
	// MinPrecision is the labeled-data precision a conjunction must reach
	// to be accepted into the DNF (high-precision rules per §5.2).
	MinPrecision float64
	// MaxAtoms caps conjunction length, keeping rules concise (§6.3).
	MaxAtoms int

	rules []Rule
	atoms func(i int) feature.Atom
}

// NewModel builds a rule learner whose atoms are described by ext. The
// default acceptance precision is 0.85, matching the paper's ensemble
// threshold τ.
func NewModel(ext *feature.BoolExtractor) *Model {
	return &Model{MinPrecision: 0.85, MaxAtoms: 4, atoms: ext.Atom}
}

// Name implements the learner interface.
func (m *Model) Name() string { return "dnf-rules" }

// Rules returns the learned conjunctions.
func (m *Model) Rules() []Rule { return m.rules }

// MinDim returns a lower bound on the Boolean feature dimensionality the
// DNF was learned over: one past the largest atom index any rule tests.
// Deployment-time validation requires the extractor to be at least this
// wide (the exact width lives in the saved artifact).
func (m *Model) MinDim() int {
	d := 0
	for _, r := range m.rules {
		for _, a := range r.Atoms {
			d = max(d, a+1)
		}
	}
	return d
}

// NumAtoms counts atoms in the DNF with repetition — the interpretability
// metric of §6.3 (inverse interpretability, Singh et al.).
func (m *Model) NumAtoms() int {
	n := 0
	for _, r := range m.rules {
		n += len(r.Atoms)
	}
	return n
}

// String renders the DNF the way the paper prints rule ensembles.
func (m *Model) String() string {
	if len(m.rules) == 0 {
		return "<empty DNF>"
	}
	var sb strings.Builder
	for i, r := range m.rules {
		if i > 0 {
			sb.WriteString("\n∨\n")
		}
		for j, a := range r.Atoms {
			if j > 0 {
				sb.WriteString(" ∧ ")
			}
			sb.WriteString(m.atoms(a).String())
		}
	}
	return sb.String()
}

// Train relearns the DNF from scratch on the labeled 0/1 vectors using
// greedy set cover: repeatedly learn the conjunction with the best
// precision on the still-uncovered positives, accept it if it clears
// MinPrecision, and remove the positives it covers.
func (m *Model) Train(X []feature.Vector, y []bool) {
	m.rules = nil
	if len(X) == 0 {
		return
	}
	var positives, negatives []int
	for i, yi := range y {
		if yi {
			positives = append(positives, i)
		} else {
			negatives = append(negatives, i)
		}
	}
	uncovered := append([]int(nil), positives...)
	for len(uncovered) > 0 && len(m.rules) < 32 {
		rule, prec, covered := m.learnConjunction(X, uncovered, negatives)
		if rule == nil || prec < m.MinPrecision || len(covered) == 0 {
			break
		}
		m.rules = append(m.rules, *rule)
		remaining := uncovered[:0]
		cov := make(map[int]struct{}, len(covered))
		for _, i := range covered {
			cov[i] = struct{}{}
		}
		for _, i := range uncovered {
			if _, ok := cov[i]; !ok {
				remaining = append(remaining, i)
			}
		}
		uncovered = remaining
	}
}

// learnConjunction greedily grows one conjunction: each step adds the
// atom with the best Laplace-smoothed precision over the currently
// covered (uncovered-positive, negative) sets, until no negatives remain
// covered, MaxAtoms is reached, or no atom improves precision.
func (m *Model) learnConjunction(X []feature.Vector, positives, negatives []int) (*Rule, float64, []int) {
	dim := len(X[0])
	coveredPos := append([]int(nil), positives...)
	coveredNeg := append([]int(nil), negatives...)
	var rule Rule

	precision := func(p, n int) float64 {
		return (float64(p) + 1) / (float64(p+n) + 2)
	}
	current := precision(len(coveredPos), len(coveredNeg))

	for len(rule.Atoms) < m.MaxAtoms && len(coveredNeg) > 0 {
		bestAtom, bestPrec, bestPosCov := -1, current, 0
		for a := 0; a < dim; a++ {
			if containsInt(rule.Atoms, a) {
				continue
			}
			var p, n int
			for _, i := range coveredPos {
				if X[i][a] >= 0.5 {
					p++
				}
			}
			if p == 0 {
				continue
			}
			for _, i := range coveredNeg {
				if X[i][a] >= 0.5 {
					n++
				}
			}
			prec := precision(p, n)
			if prec > bestPrec+1e-12 || (prec > bestPrec-1e-12 && p > bestPosCov) {
				bestAtom, bestPrec, bestPosCov = a, prec, p
			}
		}
		if bestAtom < 0 {
			break
		}
		rule.Atoms = append(rule.Atoms, bestAtom)
		coveredPos = filterCovered(X, bestAtom, coveredPos)
		coveredNeg = filterCovered(X, bestAtom, coveredNeg)
		current = precision(len(coveredPos), len(coveredNeg))
	}
	if len(rule.Atoms) == 0 || len(coveredPos) == 0 {
		return nil, 0, nil
	}
	exact := float64(len(coveredPos)) / float64(len(coveredPos)+len(coveredNeg))
	return &rule, exact, coveredPos
}

func filterCovered(X []feature.Vector, atom int, idx []int) []int {
	out := make([]int, 0, len(idx))
	for _, i := range idx {
		if X[i][atom] >= 0.5 {
			out = append(out, i)
		}
	}
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Predict labels x as matching if any rule covers it. An empty DNF
// predicts non-match everywhere.
func (m *Model) Predict(x feature.Vector) bool {
	for _, r := range m.rules {
		if r.Covers(x) {
			return true
		}
	}
	return false
}

// PredictAll classifies a batch.
func (m *Model) PredictAll(X []feature.Vector) []bool {
	out := make([]bool, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// simScore is the fraction of true atoms in x — the feature-similarity
// heuristic LFP/LFN ranks candidates by: a predicted match with few true
// atoms is a likely false positive, a rule-minus match with many true
// atoms is a likely false negative.
func simScore(x feature.Vector) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		if v >= 0.5 {
			s++
		}
	}
	return s / float64(len(x))
}

// SelectLFPLFN implements the §4.3 heuristic. From the unlabeled indices
// it returns up to k examples: likely false positives (covered by the
// DNF but with low feature similarity) interleaved with likely false
// negatives (covered by some Rule-Minus relaxation but not the full DNF,
// with high feature similarity). An empty result signals that no LFPs or
// LFNs remain, the paper's early-termination condition for rule learning.
func (m *Model) SelectLFPLFN(X []feature.Vector, unlabeled []int, k int) []int {
	return m.SelectLFPLFNCancel(X, unlabeled, k, nil)
}

// SelectLFPLFNCancel is SelectLFPLFN with a cooperative cancellation
// hook: cancelled (nil-safe) is polled every par.CancelStride examples,
// and a true return abandons scoring with a nil batch — the engine
// discards the batch of a cancelled iteration, so a partial result is
// never recorded.
func (m *Model) SelectLFPLFNCancel(X []feature.Vector, unlabeled []int, k int, cancelled func() bool) []int {
	if len(m.rules) == 0 || k <= 0 {
		return nil
	}
	rank, ok := m.RankLFPLFN(X, unlabeled, cancelled)
	if !ok || len(rank) == 0 {
		return nil
	}
	if k > len(rank) {
		k = len(rank)
	}
	return rank[:k]
}

// RankLFPLFN returns the FULL LFP/LFN interleaved ranking of the
// unlabeled pool — every likely false positive and likely false negative
// in the §4.3 order (LFPs ascending by similarity interleaved with LFNs
// descending), with no batch cap. The interleaving is prefix-stable:
// for any k, the first k entries are exactly SelectLFPLFN's batch, which
// is what lets core express LFP/LFN as a rank-valued informativeness
// score composable with any deterministic picker. The second result is
// false iff the cancellation hook (nil-safe, polled every
// par.CancelStride examples) fired, distinguishing an abandoned scan
// from a genuinely empty ranking — the paper's rule-learning
// early-termination condition.
func (m *Model) RankLFPLFN(X []feature.Vector, unlabeled []int, cancelled func() bool) ([]int, bool) {
	if len(m.rules) == 0 {
		return nil, true
	}
	var lfps, lfns []scored
	for n, i := range unlabeled {
		if cancelled != nil && n%par.CancelStride == 0 && cancelled() {
			return nil, false
		}
		x := X[i]
		if m.Predict(x) {
			lfps = append(lfps, scored{i, simScore(x)})
			continue
		}
		// Rule-Minus: drop one atom from some rule; if the relaxed rule
		// covers x, it is a candidate missed match.
		if m.coveredByRuleMinus(x) {
			lfns = append(lfns, scored{i, simScore(x)})
		}
	}
	// LFPs ascending by similarity (most suspicious first), LFNs
	// descending (most match-like first).
	sortScored(lfps, true)
	sortScored(lfns, false)
	out := make([]int, 0, len(lfps)+len(lfns))
	for li, fi := 0, 0; li < len(lfps) || fi < len(lfns); {
		if li < len(lfps) {
			out = append(out, lfps[li].idx)
			li++
		}
		if fi < len(lfns) {
			out = append(out, lfns[fi].idx)
			fi++
		}
	}
	return out, true
}

func (m *Model) coveredByRuleMinus(x feature.Vector) bool {
	for _, r := range m.rules {
		if len(r.Atoms) < 2 {
			continue
		}
		for drop := range r.Atoms {
			ok := true
			for j, a := range r.Atoms {
				if j == drop {
					continue
				}
				if x[a] < 0.5 {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

type scored struct {
	idx   int
	score float64
}

// sortScored sorts by score (ascending or descending) with index as the
// deterministic tie-break.
func sortScored(s []scored, asc bool) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].score != s[j].score {
			if asc {
				return s[i].score < s[j].score
			}
			return s[i].score > s[j].score
		}
		return s[i].idx < s[j].idx
	})
}

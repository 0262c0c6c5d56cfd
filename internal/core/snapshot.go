package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/resilience"
)

// Snapshot is a serializable checkpoint of a Session: the labeled set,
// the RNG position (draw counters over the seeded source), the stability
// counters and the curve so far. A snapshot is always a consistent,
// resumable state; one taken between Step calls (or after a run cancelled
// at a phase boundary) is exact — Restore followed by Run produces the
// same curve the uninterrupted run would have — because
//
//   - the RNG is replayed draw-for-draw on the same seed,
//   - the learner is retrained on every historical labeled prefix (the
//     curve records each iteration's training-set size), reproducing both
//     its model state and its internal RNG position under the benchmark's
//     retrain-from-scratch protocol.
//
// The one exception is a run cancelled mid-way through labeling a batch:
// the already-paid Oracle labels are kept (they cost money; rolling them
// back would discard them), so the resumed run continues from a labeled
// set the uninterrupted run never had — a consistent but different
// trajectory. Passing the label WAL to Restore closes even that gap: the
// resumed run re-selects the same batch deterministically and consumes
// the paid-for labels from the WAL instead of re-querying, which puts it
// back on the uninterrupted trajectory exactly.
//
// The pool, learner, selector and oracle are wiring, not state: Restore
// takes them as arguments. Pass a learner freshly constructed with the
// same constructor seed as the original. An oracle chain implementing
// oracle.Stateful (Noisy does) has its random position captured in
// OracleDraws and replayed by Restore, so pass it freshly constructed
// with its original seed too; an oracle with hidden state that does not
// implement Stateful is outside the snapshot's scope, and resuming with
// one reproduces the labeled set but not future noise draws.
type Snapshot struct {
	// Config is the run's protocol with defaults applied. OnIteration is
	// a function and is not serialized; re-set it after Restore if used.
	Config Config `json:"config"`
	// Draws63 and Draws64 are the RNG draw counters.
	Draws63 uint64 `json:"draws63"`
	Draws64 uint64 `json:"draws64"`
	// OracleDraws is the oracle's own random position (0 when the oracle
	// exposes none — see oracle.Stateful).
	OracleDraws uint64 `json:"oracle_draws,omitempty"`
	// Seeded records whether the seed phase has run.
	Seeded    bool `json:"seeded"`
	Iteration int  `json:"iteration"`
	MaxLabels int  `json:"max_labels"`
	// TestIdx is the evaluation universe; Labeled/Labels/Unlabeled are
	// the labeled-set bookkeeping, in draw order.
	TestIdx   []int  `json:"test_idx"`
	Labeled   []int  `json:"labeled"`
	Labels    []bool `json:"labels"`
	Unlabeled []int  `json:"unlabeled"`
	// PrevPred and StableIters are the stability-stop counters.
	PrevPred    []bool `json:"prev_pred,omitempty"`
	StableIters int    `json:"stable_iters"`
	// Curve is the partial learning curve.
	Curve eval.Curve `json:"curve"`
	// Ledger is the session's cost accounting, omitted when trivial
	// (nothing spent, nothing abstained) so free sessions carry no cost
	// fields; Restore derives the trivial ledger from the labeled set.
	Ledger *CostLedger `json:"ledger,omitempty"`
	// AbstainCounts is the per-pending-pair billed-abstention tally the
	// starvation cutoff is checked against.
	AbstainCounts map[int]int `json:"abstain_counts,omitempty"`
}

// Snapshot captures the session's current state. Call between Step
// invocations (or after Run returned, cancelled or not) for an exact
// checkpoint; the receiver keeps running independently afterwards.
func (s *Session) Snapshot() *Snapshot {
	var oracleDraws uint64
	if s.stateful != nil {
		oracleDraws = s.stateful.Draws()
	}
	var ledger *CostLedger
	if !s.ledger.trivial() {
		l := s.ledger
		ledger = &l
	}
	var abstains map[int]int
	if len(s.abstains) > 0 {
		abstains = make(map[int]int, len(s.abstains))
		for i, n := range s.abstains {
			abstains[i] = n
		}
	}
	return &Snapshot{
		Config:        s.cfg,
		Draws63:       s.src.n63,
		Draws64:       s.src.n64,
		OracleDraws:   oracleDraws,
		Seeded:        s.seeded,
		Iteration:     s.iter,
		MaxLabels:     s.maxLabels,
		TestIdx:       append([]int(nil), s.testIdx...),
		Labeled:       append([]int(nil), s.labeled...),
		Labels:        append([]bool(nil), s.labels...),
		Unlabeled:     append([]int(nil), s.unlabeled...),
		PrevPred:      append([]bool(nil), s.prevPred...),
		StableIters:   s.stableIters,
		Curve:         append(eval.Curve(nil), s.res.Curve...),
		Ledger:        ledger,
		AbstainCounts: abstains,
	}
}

// Encode serializes the snapshot as JSON.
func (sn *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sn)
}

// ReadSnapshot deserializes a snapshot written by Encode. A truncated or
// empty file — the signature of a non-atomic write interrupted by a
// crash — is reported as such, pointing the operator at the intact
// previous checkpoint instead of a JSON syntax error.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var sn Snapshot
	if err := json.NewDecoder(r).Decode(&sn); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("core: snapshot is truncated or empty (interrupted write?): %w", err)
		}
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	return &sn, nil
}

// Restore rebuilds a Session from a snapshot plus, when the run was
// journaling through a LabelSink, the label WAL it was writing (nil
// otherwise), so an interrupted run can continue where it left off.
//
// The learner must be freshly constructed with the same constructor seed
// as the original run's; Restore replays every historical training on it
// (one per curve point, on the recorded labeled prefix), which reproduces
// the learner's model and internal RNG state exactly — see Snapshot for
// why the resumed curve is then identical to an uninterrupted run. Pass
// the oracle freshly constructed with its original seed and lifted the
// way the original session's was (oracle.Batched, resilience.BatchOf);
// its random position (oracle.Stateful) and per-pair attempt ordinals
// (oracle.PairAdvancer) are realigned from the snapshot and the WAL.
//
// WAL records up to the snapshot's answer cursor are cross-checked
// against its labeled set; records past it — answers the dead process
// paid for after its last checkpoint, labels and billed abstentions
// alike — are cached, and the resumed run consumes them instead of
// re-querying the oracle. Because selection is deterministic, the
// resumed run re-selects the same pairs the dead one did, the cached
// answers land on the same indices and the ledger is re-charged to the
// cent, making the resumed trajectory bit-identical to an uninterrupted
// run — provided no pair exhausted its retry budget before the
// checkpoint (see resilience.FaultyOracle). A warm-start session
// additionally needs SetWarmStart re-attached before Step.
//
// Attach the same WAL with SetLabelSink afterwards: its appends are
// idempotent, so the replayed grants no-op and fresh grants extend it.
func Restore(pool *Pool, learner Learner, sel Selector, bo oracle.BatchOracle, sn *Snapshot, wal []resilience.LabelRecord) (*Session, error) {
	if err := sn.validate(pool); err != nil {
		return nil, err
	}
	s, err := NewBatchSession(pool, learner, sel, bo, sn.Config)
	if err != nil {
		return nil, err
	}
	if sn.Ledger != nil {
		s.ledger = *sn.Ledger
	} else {
		// A trivial ledger is omitted from snapshots; every labeled
		// pair was one acknowledged, unbilled answer.
		s.ledger = CostLedger{Answers: len(sn.Labeled), Labels: len(sn.Labeled)}
	}
	for i, n := range sn.AbstainCounts {
		s.abstains[i] = n
	}
	if len(wal) > 0 {
		// Walk the WAL against the checkpoint's answer cursor: records at
		// or below it are already reflected in the snapshot (labels are
		// cross-checked against the labeled set, and both kinds realign a
		// per-pair-keyed oracle's attempt ordinals); records past it are
		// answers the dead process paid for after its last checkpoint,
		// cached here for consumption instead of re-querying.
		answersAt := len(sn.Labeled)
		if sn.Ledger != nil {
			answersAt = sn.Ledger.Answers
		}
		s.walCache = make(map[int][]oracle.Answer)
		labelOrd := 0
		for _, rec := range wal {
			if rec.Index < 0 || rec.Index >= pool.Len() {
				return nil, fmt.Errorf("core: label WAL record %d index %d outside pool of %d pairs",
					rec.Seq, rec.Index, pool.Len())
			}
			if !rec.Abstained() {
				labelOrd++
			}
			if rec.Seq > answersAt {
				a := oracle.Answer{Verdict: oracle.VerdictAbstain, Cost: rec.Cost}
				if !rec.Abstained() {
					a.Verdict = oracle.VerdictOf(rec.Label)
				}
				s.walCache[rec.Index] = append(s.walCache[rec.Index], a)
				continue
			}
			if !rec.Abstained() && (labelOrd > len(sn.Labeled) ||
				sn.Labeled[labelOrd-1] != rec.Index || sn.Labels[labelOrd-1] != rec.Label) {
				return nil, fmt.Errorf("core: label WAL record %d (index %d) disagrees with snapshot",
					rec.Seq, rec.Index)
			}
			if s.pairAdv != nil {
				s.pairAdv.AdvancePair(pool.Pairs[rec.Index], 1)
			}
		}
	}
	s.src.replay(sn.Draws63, sn.Draws64)
	if s.stateful != nil && sn.OracleDraws > 0 {
		s.stateful.Advance(sn.OracleDraws)
	}
	s.seeded = sn.Seeded
	s.iter = sn.Iteration
	s.maxLabels = sn.MaxLabels
	s.testIdx = append([]int(nil), sn.TestIdx...)
	s.labeled = append([]int(nil), sn.Labeled...)
	s.labels = append([]bool(nil), sn.Labels...)
	s.unlabeled = append([]int(nil), sn.Unlabeled...)
	s.prevPred = append([]bool(nil), sn.PrevPred...)
	s.stableIters = sn.StableIters
	s.res.Curve = append(eval.Curve(nil), sn.Curve...)
	s.res.TestSize = len(s.testIdx)

	// Replay historical trainings: iteration i trained on the first
	// Curve[i].Labels draws of the labeled set (labels are cumulative and
	// append-only, so the prefix is the exact historical training set).
	// Warm-start iterations whose prefix could not train (empty or
	// single-class — the warm learner served instead) are skipped, which
	// reproduces the live run's training history exactly.
	warmStart := sn.Config.WarmStartModel != ""
	for _, pt := range sn.Curve {
		if warmStart && !trainablePrefix(s.labels, pt.Labels) {
			continue
		}
		trainX, trainY := gatherTraining(pool, s.labeled, s.labels, pt.Labels)
		learner.Train(trainX, trainY)
	}
	return s, nil
}

// validate rejects snapshots that are internally inconsistent or do not
// fit the pool they are being restored against.
func (sn *Snapshot) validate(pool *Pool) error {
	if len(sn.Labeled) != len(sn.Labels) {
		return fmt.Errorf("core: snapshot labeled/labels length mismatch: %d vs %d",
			len(sn.Labeled), len(sn.Labels))
	}
	for _, idx := range [][]int{sn.Labeled, sn.Unlabeled, sn.TestIdx} {
		for _, i := range idx {
			if i < 0 || i >= pool.Len() {
				return fmt.Errorf("core: snapshot index %d outside pool of %d pairs", i, pool.Len())
			}
		}
	}
	if sn.MaxLabels < 0 || sn.MaxLabels > pool.Len() {
		// Sessions clamp the budget to the pool; a larger one would size
		// selection buffers from the snapshot instead of the pool.
		return fmt.Errorf("core: snapshot label budget %d outside pool of %d pairs", sn.MaxLabels, pool.Len())
	}
	// Every pool index is either labeled or pending, never both or twice.
	seen := make([]bool, pool.Len())
	for _, idx := range [][]int{sn.Labeled, sn.Unlabeled} {
		for _, i := range idx {
			if seen[i] {
				return fmt.Errorf("core: snapshot lists pool index %d twice across labeled and unlabeled", i)
			}
			seen[i] = true
		}
	}
	for _, pt := range sn.Curve {
		if pt.Labels < 0 || pt.Labels > len(sn.Labeled) {
			return fmt.Errorf("core: snapshot curve point trained on %d labels but %d are recorded",
				pt.Labels, len(sn.Labeled))
		}
	}
	return nil
}

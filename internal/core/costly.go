package core

import (
	"fmt"

	"github.com/alem/alem/internal/resilience"
)

// budgetEps absorbs float accumulation error in dollar-budget checks so a
// run that can afford exactly its last answer is not stopped one short.
const budgetEps = 1e-9

// CostLedger is a session's money and answer accounting. Spent is
// the cumulative dollars billed across the run; Answers counts every
// acknowledged response (labels plus abstentions — it is also the WAL
// sequence cursor for record-capable sinks); Labels and Abstains split
// it by verdict. Per-pair failures are never billed and never counted.
type CostLedger struct {
	Spent    float64 `json:"spent"`
	Answers  int     `json:"answers"`
	Labels   int     `json:"labels"`
	Abstains int     `json:"abstains"`
}

// trivial reports whether the ledger carries no information beyond the
// labeled set itself (no money spent, no abstentions), in which case a
// Snapshot omits it and Restore derives it — which keeps a free
// session's snapshot bytes free of cost fields.
func (l CostLedger) trivial() bool { return l.Spent == 0 && l.Abstains == 0 }

// Ledger returns the session's cost accounting. A free oracle's ledger
// counts answers and labels but never spends.
func (s *Session) Ledger() CostLedger { return s.ledger }

// recordSink is the optional LabelSink extension sessions use to
// journal abstentions and per-answer costs. resilience.LabelWAL
// implements it.
type recordSink interface {
	AppendRecord(rec resilience.LabelRecord) error
}

// SetWarmStart attaches a pre-trained learner for transfer warm-start:
// the session skips the random seed bootstrap and lets the warm learner
// drive evaluation and selection until the labeled set contains both
// classes, at which point the session's own learner takes over under the
// usual retrain-from-scratch protocol. The warm learner is never
// trained. Call before the first Step (and again after Restore — learner
// wiring is not serialized; Step refuses to run a warm-start session
// whose learner is missing).
func (s *Session) SetWarmStart(l Learner) error {
	if l == nil {
		return fmt.Errorf("core: SetWarmStart requires a non-nil learner")
	}
	s.warm = l
	if s.cfg.WarmStartModel == "" {
		s.cfg.WarmStartModel = "inline"
	}
	return nil
}

// useWarm reports whether the warm-start learner is still the active
// model: it hands over permanently once the labeled set can train the
// session's own learner (non-empty, both classes present).
func (s *Session) useWarm() bool {
	return s.warm != nil && !trainablePrefix(s.labels, len(s.labels))
}

// trainablePrefix reports whether the first n labels can train a
// learner: a non-empty set containing both classes.
func trainablePrefix(labels []bool, n int) bool {
	return n > 0 && bothClasses(labels[:n])
}

// activeLearner is the model driving evaluation and selection: the warm
// learner while warm-start is in effect, the session's own otherwise.
func (s *Session) activeLearner() Learner {
	if s.useWarm() {
		return s.warm
	}
	return s.learner
}

// abstainCutoff resolves Config.AbstainCutoff's default at use (not in
// withDefaults, so legacy snapshot bytes are unchanged).
func (s *Session) abstainCutoff() int {
	if s.cfg.AbstainCutoff > 0 {
		return s.cfg.AbstainCutoff
	}
	return DefaultAbstainCutoff
}

// budgetExhausted reports whether the dollar budget can no longer afford
// another answer at the oracle's worst-case price. Free oracles
// (MaxAnswerCost 0) never exhaust a budget.
func (s *Session) budgetExhausted() bool {
	return s.cfg.MaxDollars > 0 && s.maxCost > 0 &&
		s.ledger.Spent+s.maxCost > s.cfg.MaxDollars+budgetEps
}

// journal durably records one acknowledged answer. A record-capable sink
// (resilience.LabelWAL) gets the full record with the answer-sequence
// cursor; a label-only sink gets the classic Append with the label
// ordinal (and cannot represent abstentions, which are skipped). An
// error is fatal to the run: an answer that cannot be made durable must
// not be paid for twice.
func (s *Session) journal(rec resilience.LabelRecord) error {
	if s.sink == nil {
		return nil
	}
	if rs, ok := s.sink.(recordSink); ok {
		if err := rs.AppendRecord(rec); err != nil {
			return fmt.Errorf("core: recording label in sink: %w", err)
		}
		return nil
	}
	if rec.Abstained() {
		return nil
	}
	if err := s.sink.Append(s.ledger.Labels, rec.Index, rec.Label); err != nil {
		return fmt.Errorf("core: recording label in sink: %w", err)
	}
	return nil
}

// applyGrant moves one answered pair into the labeled set, bills its
// cost and journals it.
func (s *Session) applyGrant(i int, lab bool, cost float64) error {
	s.labeled = append(s.labeled, i)
	s.labels = append(s.labels, lab)
	s.ledger.Answers++
	s.ledger.Labels++
	s.ledger.Spent += cost
	delete(s.abstains, i)
	return s.journal(resilience.LabelRecord{Seq: s.ledger.Answers, Index: i, Label: lab, Cost: cost})
}

// applyAbstain bills and journals one abstention and advances the pair's
// abstain count, reporting whether the pair just hit the cutoff and must
// be retired from the pool.
func (s *Session) applyAbstain(i int, cost float64) (retired bool, err error) {
	s.ledger.Answers++
	s.ledger.Abstains++
	s.ledger.Spent += cost
	s.abstains[i]++
	if err := s.journal(resilience.LabelRecord{
		Seq: s.ledger.Answers, Index: i, Verdict: "abstain", Cost: cost,
	}); err != nil {
		return false, err
	}
	if s.abstains[i] >= s.abstainCutoff() {
		delete(s.abstains, i)
		return true, nil
	}
	return false, nil
}

// advanceCached realigns the oracle's randomness past one answer a
// crashed run already received and this run consumed from the WAL cache:
// sequential-stream oracles (oracle.Stateful) skip one draw, per-pair
// keyed oracles (oracle.PairAdvancer) skip one attempt ordinal.
func (s *Session) advanceCached(i int) {
	if s.stateful != nil {
		s.stateful.Advance(1)
	}
	if s.pairAdv != nil {
		s.pairAdv.AdvancePair(s.pool.Pairs[i], 1)
	}
}

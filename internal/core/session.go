package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/eval"
	"github.com/alem/alem/internal/feature"
	"github.com/alem/alem/internal/oracle"
	"github.com/alem/alem/internal/par"
	"github.com/alem/alem/internal/resilience"
)

// ErrLabelingStalled is returned by Step (and wrapped into the Result's
// error) when an entire labeling round failed — every query in the batch
// errored and not one label was granted. It separates "the labeler is
// down" (StopOracleFailed) from ordinary cancellation, and stops the
// engine from spinning on a dead Oracle forever.
var ErrLabelingStalled = errors.New("core: labeling stalled, no query in the round succeeded")

// LabelSink receives every granted label, in grant order, before the
// engine considers the label applied. resilience.LabelWAL implements it;
// wiring one in with SetLabelSink makes each paid-for label durable the
// moment it is granted, which is what lets Snapshot + WAL replay resume
// a killed run without re-paying (or re-randomizing) any label.
type LabelSink interface {
	// Append durably records that the seq-th granted label (1-based) was
	// for pool index with the given value. An error is fatal to the run:
	// a label that cannot be made durable must not be trained on.
	Append(seq, index int, label bool) error
}

// Session is the active-learning loop of Fig. 1a decomposed into explicit
// phases — seed, train, evaluate, select, label — with three cross-cutting
// capabilities the monolithic core.Run never had:
//
//   - cancellation: Run and Step honor a context.Context, checked at every
//     phase boundary, inside parallel prediction, before every Oracle
//     query, and (via SelectContext.Ctx) inside the slow selectors, so a
//     run aborts within one iteration without losing its partial curve;
//   - observation: a typed event stream (Observer) reports phase
//     transitions with per-phase timings while the run is in flight;
//   - checkpointing: Snapshot/Restore serialize the labeled set, RNG
//     position and stability counters so long runs survive restarts (see
//     snapshot.go).
//
// A Session produces bit-identical curves to the core.Run it replaces:
// the engine draws from the same RNG in the same order, and core.Run is
// now a thin wrapper over it.
//
// A Session is single-use: construct with NewSession or NewBatchSession
// (or Restore), drive with Run or Step, then read Result. It is not safe
// for concurrent use; run concurrent sessions instead (they share
// nothing).
type Session struct {
	pool    *Pool
	learner Learner
	sel     Selector
	cfg     Config

	// oracle answers every labeling round (see labelBatch). The hooks
	// below are discovered on its UnwrapOracle chain at construction.
	oracle oracle.BatchOracle
	// perPair is set when the oracle adapts a per-pair labeler
	// (oracle.PerPair): it is then asked for one pair per call.
	perPair bool
	// stateful is the oracle's RNG-state hook when the chain implements
	// oracle.Stateful (Noisy does); nil otherwise.
	stateful oracle.Stateful
	// pairAdv is the oracle's per-pair ordinal realignment hook, when the
	// chain implements oracle.PairAdvancer (the simulated LLM oracle does).
	pairAdv oracle.PairAdvancer
	// maxCost is the oracle's per-answer cost ceiling (0 for free
	// oracles), the unit the dollar budget is checked against.
	maxCost float64
	// sink, when set, durably records every granted label (see LabelSink).
	sink LabelSink
	// walCache holds the answers recovered from a WAL during Restore that
	// the crashed run paid for after its last checkpoint: pool index →
	// billed abstentions and the final label, in answer order, each with
	// its recorded cost. labelBatch consumes them FIFO on re-selection
	// instead of querying the oracle, so a resumed run never re-pays for
	// an answer and re-charges the ledger exactly what was paid.
	walCache map[int][]oracle.Answer
	// ledger is the session's cost accounting; see CostLedger.
	ledger CostLedger
	// abstains counts billed abstentions per still-pending pool index;
	// a pair reaching the abstain cutoff is retired from the pool.
	abstains map[int]int
	// warm is the transfer warm-start learner (see SetWarmStart): it
	// drives evaluation and selection until the labeled set can train
	// the session's own learner, and is itself never trained.
	warm Learner

	src *countingSource
	rng *rand.Rand

	observers []Observer

	// Universe split and labeled-set bookkeeping, valid after the seed
	// phase.
	maxLabels int
	testIdx   []int
	labeled   []int
	labels    []bool
	unlabeled []int

	seeded      bool
	iter        int
	prevPred    []bool
	stableIters int

	res    *Result
	reason StopReason
	done   bool
	err    error
}

// NewSession is NewBatchSession for a plain per-pair Oracle, lifted with
// oracle.Batched.
func NewSession(pool *Pool, learner Learner, sel Selector, o oracle.Oracle, cfg Config) (*Session, error) {
	return NewBatchSession(pool, learner, sel, oracle.Batched(o), cfg)
}

// NewBatchSession validates the config and prepares a session labeling
// through bo. No oracle queries are issued until the first Run or Step
// call (the seed phase is lazy), so construction is side-effect free.
//
// Every kind of labeler enters here: a plain Oracle through
// oracle.Batched (or NewSession), a FallibleOracle — typically a
// resilience.Retrier over a remote or fault-injected labeler — through
// resilience.BatchOf, and genuinely batched, priced labelers directly.
// Failed answers requeue their pair at the back of the unlabeled pool
// and surface as OracleFault events; only a round in which every query
// fails stops the run (StopOracleFailed). Abstentions are billed and
// requeued up to Config.AbstainCutoff, then retired from the pool; every
// answer's cost is accumulated into the session's CostLedger, and
// Config.MaxDollars bounds the total spend (StopBudgetExhausted). The
// oracle.Stateful, oracle.PairAdvancer, oracle.Priced and oracle.PerPair
// hooks are discovered on bo's UnwrapOracle chain here, so Snapshot+WAL
// resume realigns the oracle's randomness.
func NewBatchSession(pool *Pool, learner Learner, sel Selector, bo oracle.BatchOracle, cfg Config) (*Session, error) {
	if bo == nil {
		return nil, fmt.Errorf("core: NewBatchSession requires a batch oracle")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Same pre-seed validation path as Config.Validate: a selector that
	// declares learner requirements (LearnerChecker) is checked here, so
	// e.g. LFP/LFN composed with a non-rule learner fails with a typed
	// *IncompatibleError at construction instead of terminating mid-run
	// with an inscrutable StopSelectorEmpty.
	if err := ValidateSelection(learner, sel); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	src := newCountingSource(cfg.Seed)
	s := &Session{
		pool:     pool,
		learner:  learner,
		sel:      sel,
		cfg:      cfg,
		oracle:   bo,
		abstains: map[int]int{},
		src:      src,
		rng:      rand.New(src),
		res:      &Result{},
	}
	s.stateful, _ = resilience.StatefulOf(bo)
	for o := any(bo); o != nil; {
		if pa, ok := o.(oracle.PairAdvancer); ok && s.pairAdv == nil {
			s.pairAdv = pa
		}
		if pr, ok := o.(oracle.Priced); ok && s.maxCost == 0 {
			s.maxCost = pr.MaxAnswerCost()
		}
		if _, ok := o.(oracle.PerPair); ok {
			s.perPair = true
		}
		u, ok := o.(interface{ UnwrapOracle() any })
		if !ok {
			break
		}
		o = u.UnwrapOracle()
	}
	return s, nil
}

// SetLabelSink wires a durable label log (typically a
// resilience.LabelWAL) into the session. Call before Run/Step; labels
// granted earlier are not re-sent. Appends are idempotent on a WAL, so
// attaching the same WAL a resumed run was restored from is safe.
func (s *Session) SetLabelSink(sink LabelSink) { s.sink = sink }

// AddObserver subscribes obs to the session's event stream. Call before
// Run/Step; events already emitted are not replayed.
func (s *Session) AddObserver(obs ...Observer) {
	s.observers = append(s.observers, obs...)
}

func (s *Session) emit(e Event) {
	for _, o := range s.observers {
		o.Observe(e)
	}
}

// Result returns the run's (possibly partial) outcome. The curve holds
// one point per completed iteration; LabelsUsed is only set once the run
// has finished or been cancelled.
func (s *Session) Result() *Result { return s.res }

// Reason returns why the run stopped (StopNone while still running).
func (s *Session) Reason() StopReason { return s.reason }

// Done reports whether the run has terminated.
func (s *Session) Done() bool { return s.done }

// Run drives the session to completion: seed once, then iterate
// train→evaluate→select→label until a stopping criterion fires. On
// cancellation it returns the partial Result together with the context's
// error; the session remains snapshottable, so the curve is not lost.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	for {
		done, err := s.Step(ctx)
		if done || err != nil {
			return s.res, err
		}
	}
}

// Step executes the seed phase if needed, then exactly one
// train→evaluate→select→label iteration. It returns done=true once a
// stopping criterion fires (calling Step again is a no-op). Snapshots
// taken between Step calls are exact checkpoints.
func (s *Session) Step(ctx context.Context) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.done {
		return true, s.err
	}
	if s.cfg.WarmStartModel != "" && s.warm == nil {
		return true, s.cancel(fmt.Errorf(
			"core: config records warm-start %q but no learner is attached (call SetWarmStart before Step)",
			s.cfg.WarmStartModel))
	}
	if !s.seeded {
		start := time.Now()
		if err := s.seedPhase(ctx); err != nil {
			return true, err
		}
		s.emit(PhaseDone{
			Phase: "seed", Iteration: -1, Elapsed: time.Since(start),
			Labels: len(s.labeled), LabelsDelta: len(s.labeled),
			Workers: par.Workers(s.cfg.Workers), PoolRemaining: len(s.unlabeled),
		})
	}

	s.emit(IterationStart{
		Iteration:     s.iter,
		LabelsUsed:    len(s.labeled),
		PoolRemaining: len(s.unlabeled),
	})
	if err := ctx.Err(); err != nil {
		return true, s.cancel(err)
	}

	trainTime := s.trainPhase()
	s.emit(TrainDone{Iteration: s.iter, Labels: len(s.labeled), Elapsed: trainTime})
	s.emit(PhaseDone{
		Phase: "train", Iteration: s.iter, Elapsed: trainTime,
		Labels: len(s.labeled), Workers: 1, PoolRemaining: len(s.unlabeled),
	})
	if err := ctx.Err(); err != nil {
		return true, s.cancel(err)
	}

	pt, pred, err := s.evalPhase(ctx, trainTime)
	if err != nil {
		return true, s.cancel(err)
	}
	pt.Spent = s.ledger.Spent

	// Ground-truth-free stability stop: track prediction churn.
	if s.cfg.StabilityWindow > 0 {
		if s.prevPred != nil {
			flips := 0
			for j := range pred {
				if pred[j] != s.prevPred[j] {
					flips++
				}
			}
			if float64(flips) <= s.cfg.StabilityEpsilon*float64(len(pred)) {
				s.stableIters++
			} else {
				s.stableIters = 0
			}
		}
		s.prevPred = pred
	}

	selStart := time.Now()
	batch, reason := s.selectPhase(ctx, &pt)
	if err := ctx.Err(); err != nil {
		// Cancelled inside the selector: the iteration is incomplete, so
		// its point is not recorded.
		return true, s.cancel(err)
	}
	s.emit(PhaseDone{
		Phase: "select", Iteration: s.iter, Elapsed: time.Since(selStart),
		Labels: len(s.labeled), Batch: len(batch),
		Workers: par.Workers(s.cfg.Workers), PoolRemaining: len(s.unlabeled),
	})
	if s.cfg.OnIteration != nil {
		s.cfg.OnIteration(s.learner, &pt)
	}
	s.res.Curve = append(s.res.Curve, pt)
	if reason != StopNone {
		s.finish(reason, nil)
		return true, nil
	}
	s.emit(BatchSelected{
		Iteration:       s.iter,
		Batch:           batch,
		CommitteeCreate: pt.CommitteeCreateTime,
		Score:           pt.ScoreTime,
	})

	labStart := time.Now()
	before := len(s.labeled)
	if err := s.labelBatch(ctx, batch); err != nil {
		return true, s.failLabeling(err)
	}
	s.emit(PhaseDone{
		Phase: "label", Iteration: s.iter, Elapsed: time.Since(labStart),
		Labels: len(s.labeled), LabelsDelta: len(s.labeled) - before,
		Batch: len(batch), Workers: 1, PoolRemaining: len(s.unlabeled),
	})
	s.iter++
	return false, nil
}

// failLabeling terminates the run for a labeling error, separating a
// stalled labeler (StopOracleFailed) from cancellation and sink faults.
func (s *Session) failLabeling(err error) error {
	if errors.Is(err, ErrLabelingStalled) {
		s.finish(StopOracleFailed, err)
		return err
	}
	return s.cancel(err)
}

// seedPhase builds the selection universe and draws the initial labeled
// sample. If a single class comes back, it keeps drawing batches until
// both classes are present (a degenerate training set cannot bootstrap
// any learner); each extra draw is clamped to the remaining budget so the
// bootstrap can never overshoot MaxLabels.
func (s *Session) seedPhase(ctx context.Context) error {
	var universe []int
	s.testIdx, universe, s.maxLabels = splitUniverse(s.rng, s.pool.Len(), s.cfg)
	s.labeled = make([]int, 0, s.maxLabels)
	s.labels = make([]bool, 0, s.maxLabels)
	s.unlabeled = append([]int(nil), universe...)
	s.res.TestSize = len(s.testIdx)
	s.seeded = true

	if s.warm != nil {
		// Transfer warm-start: the pre-trained learner drives the first
		// selections, so no random bootstrap sample is bought. The
		// universe split and RNG position above are unchanged.
		return nil
	}
	if err := s.labelFront(ctx, min(s.cfg.SeedLabels, s.maxLabels)); err != nil {
		return s.failLabeling(err)
	}
	for !bothClasses(s.labels) && len(s.unlabeled) > 0 && len(s.labeled) < s.maxLabels &&
		!s.budgetExhausted() {
		if err := s.labelFront(ctx, min(s.cfg.BatchSize, s.maxLabels-len(s.labeled))); err != nil {
			return s.failLabeling(err)
		}
	}
	return nil
}

// splitUniverse draws the run's pool permutation and splits it into the
// evaluation set and the selection universe (under Progressive the test
// set is the whole pool), clamping the label budget to the universe. Session and
// RunEnsemble both seed through it, so their RNG draw order is shared.
func splitUniverse(rng *rand.Rand, n int, cfg Config) (testIdx, universe []int, maxLabels int) {
	all := rng.Perm(n)
	switch cfg.Mode {
	case HeldOut:
		cut := int(float64(n) * cfg.HoldoutFrac)
		testIdx, universe = all[:cut], all[cut:]
	default:
		testIdx = make([]int, n)
		for i := range testIdx {
			testIdx[i] = i
		}
		universe = all
	}
	maxLabels = cfg.MaxLabels
	if maxLabels <= 0 || maxLabels > len(universe) {
		maxLabels = len(universe)
	}
	return testIdx, universe, maxLabels
}

// labelFront labels the next k unlabeled examples in universe order.
func (s *Session) labelFront(ctx context.Context, k int) error {
	if k > len(s.unlabeled) {
		k = len(s.unlabeled)
	}
	return s.labelBatch(ctx, append([]int(nil), s.unlabeled[:k]...))
}

// labelBatch is the session's one labeling loop. It walks batch in
// order, resolving each index to an answer:
//
//   - from the WAL cache, when a resumed run's crashed predecessor
//     already paid for it (re-charging the recorded cost and realigning
//     the oracle's randomness past the consumed answer);
//   - otherwise from the oracle, fetched lazily when the walk reaches the
//     first live index: a per-pair adapter (oracle.PerPair) is asked for
//     that one pair, a batch oracle for every live pair left in the
//     round, in one LabelBatch call.
//
// Lazy, in-order fetching keeps two guarantees of per-pair labeling: a
// grant is journaled to the sink before the next query is sent, and
// WAL-cache realignment interleaves with live draws in batch order, so a
// stateful oracle's draws land on the same pairs as in an uninterrupted
// run.
//
// Granted labels move into the labeled set; abstentions are billed and
// requeued until the abstain cutoff retires them; failed indices are
// requeued at the back of the unlabeled pool so the run trains on what it
// got and comes back to them later. A context error stops the walk
// before the next query, leaving the acknowledged prefix applied and the
// unattempted remainder in place. Indices are admitted in order only
// while the dollar budget can still reserve one worst-case answer each;
// the unaffordable suffix stays in the pool untouched and the next
// selectPhase stops the run with StopBudgetExhausted. A round in which
// every query failed returns ErrLabelingStalled — training on nothing new
// would loop forever against a dead labeler.
func (s *Session) labelBatch(ctx context.Context, batch []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()

	admitted := len(batch)
	if s.cfg.MaxDollars > 0 && s.maxCost > 0 {
		admitted = 0
		for admitted < len(batch) &&
			s.ledger.Spent+s.maxCost*float64(admitted+1) <= s.cfg.MaxDollars+budgetEps {
			admitted++
		}
	}

	var (
		drop, requeue []int
		answers       []oracle.Answer
		batchErr      error
		fetched       bool
		cursor        int
		asked         int
		submitted     int
		granted       int
		abstained     int
		retiredCount  int
		failures      int
		cachedUsed    int
		roundCost     float64
		fatal         error
	)
walk:
	for k, i := range batch[:admitted] {
		a, cached := s.takeCached(i)
		if cached {
			cachedUsed++
			s.advanceCached(i)
		} else {
			if cursor == len(answers) && (s.perPair || !fetched) {
				if fatal = ctx.Err(); fatal != nil {
					break walk
				}
				live := []dataset.PairKey{s.pool.Pairs[i]}
				if !s.perPair {
					live = s.livePairs(batch[k:admitted])
				}
				answers, batchErr = s.oracle.LabelBatch(ctx, live)
				cursor, fetched, asked = 0, true, len(live)
				submitted += asked
			}
			if cursor == len(answers) {
				// The call died before answering this pair: abort on
				// cancellation (the acknowledged prefix stays applied),
				// otherwise requeue the unanswered pair as a fault.
				if batchErr != nil && ctx.Err() != nil {
					fatal = ctx.Err()
					break walk
				}
				a.Err = batchErr
				if a.Err == nil {
					a.Err = fmt.Errorf("core: batch oracle answered %d of %d pairs", len(answers), asked)
				}
			} else {
				a = answers[cursor]
				cursor++
			}
		}
		switch {
		case a.Err != nil:
			s.emit(OracleFault{Iteration: s.iter, Index: i, Pair: s.pool.Pairs[i], Err: a.Err})
			failures++
			requeue = append(requeue, i)
		case a.Verdict == oracle.VerdictAbstain:
			retired, err := s.applyAbstain(i, a.Cost)
			if err != nil {
				fatal = err
				break walk
			}
			roundCost += a.Cost
			abstained++
			if retired {
				drop = append(drop, i)
				retiredCount++
			} else {
				requeue = append(requeue, i)
			}
		default:
			if fatal = s.applyGrant(i, a.Verdict == oracle.VerdictMatch, a.Cost); fatal != nil {
				break walk
			}
			roundCost += a.Cost
			granted++
			drop = append(drop, i)
		}
	}

	removeFromPool(&s.unlabeled, drop)
	if len(requeue) > 0 {
		removeFromPool(&s.unlabeled, requeue)
		s.unlabeled = append(s.unlabeled, requeue...)
	}
	if fatal != nil {
		return fatal
	}
	s.emit(OracleBatchDone{
		Iteration: s.iter,
		Pairs:     submitted,
		Answers:   granted + abstained,
		Labels:    granted,
		Abstains:  abstained,
		Failures:  failures,
		Retired:   retiredCount,
		Cost:      roundCost,
		Spent:     s.ledger.Spent,
		Elapsed:   time.Since(start),
	})
	if granted == 0 && abstained == 0 && cachedUsed == 0 && failures > 0 {
		return fmt.Errorf("%w: %d of %d queries failed", ErrLabelingStalled, failures, len(batch))
	}
	return nil
}

// takeCached pops the answer a resumed run's crashed predecessor already
// paid for at pool index i, if the WAL holds one.
func (s *Session) takeCached(i int) (oracle.Answer, bool) {
	q := s.walCache[i]
	switch len(q) {
	case 0:
		return oracle.Answer{}, false
	case 1:
		delete(s.walCache, i)
	default:
		s.walCache[i] = q[1:]
	}
	return q[0], true
}

// livePairs returns the pairs of the indices in batch that the WAL cache
// cannot answer.
func (s *Session) livePairs(batch []int) []dataset.PairKey {
	live := make([]dataset.PairKey, 0, len(batch))
	for _, i := range batch {
		if len(s.walCache[i]) == 0 {
			live = append(live, s.pool.Pairs[i])
		}
	}
	return live
}

// trainPhase retrains the learner from scratch on the cumulative labeled
// set (the benchmark's retrain protocol) and returns the wall time.
// While a warm-start session's labeled set cannot train (empty or
// single-class), the phase is skipped — the warm learner serves as the
// model and is never trained, which keeps snapshot replay trivially
// deterministic.
func (s *Session) trainPhase() time.Duration {
	if s.useWarm() {
		return 0
	}
	trainX, trainY := gatherTraining(s.pool, s.labeled, s.labels, len(s.labeled))
	start := time.Now()
	s.learner.Train(trainX, trainY)
	return time.Since(start)
}

// evalPhase predicts over the test universe in parallel and scores the
// confusion matrix.
func (s *Session) evalPhase(ctx context.Context, trainTime time.Duration) (eval.Point, []bool, error) {
	start := time.Now()
	pred, err := parallelPredict(ctx, s.activeLearner().Predict, s.pool, s.testIdx, s.cfg.Workers)
	if err != nil {
		return eval.Point{}, nil, err
	}
	pt := evalPoint(s.pool, s.testIdx, pred, len(s.labeled), trainTime)
	elapsed := time.Since(start)
	s.emit(EvalDone{Iteration: s.iter, Point: pt, Elapsed: elapsed})
	s.emit(PhaseDone{
		Phase: "evaluate", Iteration: s.iter, Elapsed: elapsed,
		Labels: len(s.labeled), Workers: par.Workers(s.cfg.Workers),
		PoolRemaining: len(s.unlabeled),
	})
	return pt, pred, nil
}

// selectPhase checks the stopping criteria and, if the run continues,
// asks the selector for the next batch. It writes the selector's latency
// breakdown into pt and returns the stop reason (StopNone to continue).
func (s *Session) selectPhase(ctx context.Context, pt *eval.Point) ([]int, StopReason) {
	sctx := &SelectContext{
		Ctx:     ctx,
		Learner: s.activeLearner(), Pool: s.pool,
		LabeledIdx: s.labeled, Labels: s.labels,
		Unlabeled: s.unlabeled, Rand: s.rng,
		Workers: s.cfg.Workers,
	}
	var batch []int
	reason := StopNone
	switch {
	case len(s.labeled) >= s.maxLabels:
		reason = StopBudget
	case s.budgetExhausted():
		reason = StopBudgetExhausted
	case len(s.unlabeled) == 0:
		reason = StopPoolExhausted
	case s.cfg.TargetF1 > 0 && pt.F1 >= s.cfg.TargetF1:
		reason = StopTargetF1
	case s.cfg.StabilityWindow > 0 && s.stableIters >= s.cfg.StabilityWindow:
		reason = StopStability
	default:
		k := min(s.cfg.BatchSize, s.maxLabels-len(s.labeled))
		batch = s.sel.Select(sctx, k)
		switch {
		case len(batch) == 0 && ctx.Err() != nil:
			// The selector bailed out because the run was cancelled
			// mid-select, not because it ran out of informative examples;
			// reporting StopSelectorEmpty here would let a cancelled run
			// masquerade as a normal termination.
			reason = StopCancelled
		case len(batch) == 0:
			reason = StopSelectorEmpty
		}
	}
	pt.CommitteeCreateTime = sctx.CommitteeCreate
	pt.ScoreTime = sctx.Score
	return batch, reason
}

func (s *Session) finish(reason StopReason, err error) {
	s.done = true
	s.reason = reason
	s.err = err
	s.res.LabelsUsed = len(s.labeled)
	s.res.Reason = reason
	s.emit(RunEnd{
		Iterations: len(s.res.Curve),
		LabelsUsed: s.res.LabelsUsed,
		Reason:     reason,
		Err:        err,
	})
}

func (s *Session) cancel(err error) error {
	s.finish(StopCancelled, err)
	return err
}

// ---- shared phase helpers (used by Session and RunEnsemble) ----

// gatherTraining copies the labeled set's vectors and labels into
// training slices. n caps the prefix taken (Restore replays historical
// prefixes; live phases pass len(labeled)).
func gatherTraining(pool *Pool, labeled []int, labels []bool, n int) ([]feature.Vector, []bool) {
	trainX := make([]feature.Vector, n)
	trainY := make([]bool, n)
	for j := 0; j < n; j++ {
		trainX[j] = pool.X[labeled[j]]
		trainY[j] = labels[j]
	}
	return trainX, trainY
}

// evalPoint scores predictions over the test universe into a curve point.
func evalPoint(pool *Pool, testIdx []int, pred []bool, labels int, trainTime time.Duration) eval.Point {
	truth := make([]bool, len(testIdx))
	for j, i := range testIdx {
		truth[j] = pool.Truth[i]
	}
	conf := eval.Evaluate(pred, truth)
	return eval.Point{
		Labels:    labels,
		F1:        conf.F1(),
		Precision: conf.Precision(),
		Recall:    conf.Recall(),
		TrainTime: trainTime,
	}
}

// removeFromPool deletes the batch's indices from the unlabeled pool,
// preserving order.
func removeFromPool(unlabeled *[]int, batch []int) {
	if len(batch) == 0 {
		return
	}
	inBatch := make(map[int]struct{}, len(batch))
	for _, i := range batch {
		inBatch[i] = struct{}{}
	}
	next := (*unlabeled)[:0]
	for _, i := range *unlabeled {
		if _, ok := inBatch[i]; !ok {
			next = append(next, i)
		}
	}
	*unlabeled = next
}

// ---- serializable RNG ----

// countingSource wraps the standard math/rand source with draw counters,
// making the RNG position serializable: a Snapshot records how many
// values were drawn, and Restore replays that many draws on a fresh
// source with the same seed. Every draw advances the underlying state
// exactly once, so the replayed source is state-identical — and because
// the wrapped source is rand.NewSource itself, Session runs are
// bit-identical to the old core.Run.
type countingSource struct {
	src      rand.Source64
	n63, n64 uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: asSource64(rand.NewSource(seed))}
}

// Int63 implements rand.Source.
func (c *countingSource) Int63() int64 {
	c.n63++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *countingSource) Uint64() uint64 {
	c.n64++
	return c.src.Uint64()
}

// Seed implements rand.Source.
func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n63, c.n64 = 0, 0
}

// replay advances a freshly seeded source to a snapshotted position. The
// final state depends only on the number of draws of each kind, not on
// how they were interleaved.
func (c *countingSource) replay(n63, n64 uint64) {
	for i := uint64(0); i < n63; i++ {
		c.src.Int63()
	}
	for i := uint64(0); i < n64; i++ {
		c.src.Uint64()
	}
	c.n63, c.n64 = n63, n64
}

// asSource64 upgrades a rand.Source to rand.Source64. rand.NewSource has
// returned a Source64 since Go 1.8; the shim covers hypothetical plain
// sources.
func asSource64(src rand.Source) rand.Source64 {
	if s64, ok := src.(rand.Source64); ok {
		return s64
	}
	return int63Source{src}
}

type int63Source struct{ rand.Source }

func (s int63Source) Uint64() uint64 {
	return uint64(s.Int63())>>31 | uint64(s.Int63())<<32
}

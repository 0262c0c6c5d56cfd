package oracle

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/alem/alem/internal/dataset"
)

// Verdict is a batch labeler's per-pair answer class. Unlike the boolean
// Oracle contract, a batched labeler may decline to answer: modern
// LLM-style labelers abstain on pairs they are not confident about, and
// the engine requeues those pairs instead of treating them as labels.
type Verdict int8

const (
	// VerdictNonMatch answers "these records are different entities".
	VerdictNonMatch Verdict = iota
	// VerdictMatch answers "these records are the same entity".
	VerdictMatch
	// VerdictAbstain declines to answer. An abstention is still an
	// acknowledged (and typically billed) response — the labeler did the
	// work and said "unsure" — which is exactly why abstain-heavy oracles
	// need budget accounting.
	VerdictAbstain
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictNonMatch:
		return "non-match"
	case VerdictMatch:
		return "match"
	case VerdictAbstain:
		return "abstain"
	}
	return "unknown"
}

// VerdictOf maps a boolean label to its verdict.
func VerdictOf(match bool) Verdict {
	if match {
		return VerdictMatch
	}
	return VerdictNonMatch
}

// Answer is one pair's outcome within a batch: a verdict plus the cost
// the labeler billed for it, or a per-pair error. An errored answer is
// not billed and carries no verdict — the pair simply was not labeled
// this round (rate limit, content filter, malformed response).
type Answer struct {
	Verdict Verdict
	// Cost is the dollars billed for this answer (0 for free oracles and
	// for errored answers).
	Cost float64
	// Err, when non-nil, marks the answer failed; Verdict and Cost are
	// meaningless then.
	Err error
}

// BatchOracle is the costly-labeler contract: whole batches of pairs are
// submitted in one call (amortizing the per-call latency a remote
// labeler charges), and every pair comes back as an Answer that may be a
// match/non-match verdict, an abstention, or a per-pair failure.
//
// LabelBatch returns one Answer per submitted pair, in submission order.
// On a batch-level error it may return a shorter prefix of answers — the
// pairs acknowledged before the call died; the caller must treat the
// prefix as paid-for and the remainder as never attempted.
// Implementations are called sequentially from one goroutine.
type BatchOracle interface {
	LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]Answer, error)
	// Queries returns how many answers (labels plus abstentions) the
	// labeler has acknowledged — the batched counterpart of the #labels
	// metric.
	Queries() int
}

// Priced is implemented by batch oracles that bill per answer.
// MaxAnswerCost bounds what any single answer can cost, which is how the
// engine decides whether the remaining dollar budget can still afford
// another query.
type Priced interface {
	MaxAnswerCost() float64
}

// PairAdvancer is the batched counterpart of Stateful for oracles whose
// randomness is keyed per (pair, attempt ordinal) rather than drawn from
// a sequential stream. AdvancePair fast-forwards one pair's attempt
// ordinal, which is how a WAL replay realigns a freshly constructed
// oracle with the attempts a crashed process already made.
type PairAdvancer interface {
	AdvancePair(p dataset.PairKey, n int)
}

// PerPair is implemented by BatchOracle adapters over per-pair labelers
// (Batched, resilience.BatchOf): every answer is one inner query, so
// batching them buys nothing. The engine submits such an oracle one pair
// per LabelBatch call, which journals each grant before the next query
// is sent and keeps WAL-replay realignment of a stateful inner oracle in
// batch order. Like Priced and PairAdvancer it is discovered anywhere on
// the UnwrapOracle chain.
type PerPair interface {
	PerPair()
}

// PriceTable is a batch labeler's billing schedule, in dollars.
type PriceTable struct {
	// PerLabel is charged for every match/non-match verdict.
	PerLabel float64
	// PerAbstain is charged for every abstention (labelers bill the
	// tokens they burned even when the answer is "unsure").
	PerAbstain float64
}

// Max returns the largest single-answer charge the table can produce.
func (t PriceTable) Max() float64 {
	if t.PerAbstain > t.PerLabel {
		return t.PerAbstain
	}
	return t.PerLabel
}

// ErrSimulated marks a per-pair failure injected by the simulated LLM
// labeler; tests match it with errors.Is.
var ErrSimulated = errors.New("oracle: simulated labeler failure")

// LLMSimConfig shapes a SimulatedLLMOracle. The zero value is a free,
// instant, always-answering, noise-free labeler.
type LLMSimConfig struct {
	// AbstainRate is the probability in [0, 1] that an answer abstains.
	AbstainRate float64
	// NoiseRate is the probability in [0, 1] that a non-abstaining
	// answer flips the true label.
	NoiseRate float64
	// FailRate is the probability in [0, 1] that an answer fails with a
	// per-pair error (unbilled, no verdict).
	FailRate float64
	// Price is the billing schedule.
	Price PriceTable
	// Latency is simulated once per LabelBatch call — the fixed per-call
	// overhead batching amortizes. It honors context cancellation.
	Latency time.Duration
}

// SimulatedLLMOracle is a deterministic, seeded stand-in for an
// LLM-style batch labeler: per-batch latency, per-answer cost,
// abstentions and label noise — no network. Every abstain/noise/failure
// decision is a pure function of (seed, pair, that pair's attempt
// ordinal), the same construction as resilience.FaultyOracle: two
// instances built with the same seed and driven with the same per-pair
// attempt sequence answer identically, regardless of how batches
// interleave pairs — which is what lets the chaos suite assert a
// killed-and-resumed run matches an uninterrupted one.
//
// The per-pair attempt ordinals are process-local state; a resumed
// process realigns them from the WAL via AdvancePair. Failed answers are
// not journaled, so alignment across a resume holds as long as no pair
// failed after the last checkpoint and was still pending at the kill
// (the same documented precondition FaultyOracle has for exhausted
// retries).
type SimulatedLLMOracle struct {
	d    *dataset.Dataset
	cfg  LLMSimConfig
	seed int64

	mu       sync.Mutex
	attempts map[dataset.PairKey]int
	queries  int
	batches  int
	labels   int
	abstains int
	failures int
	spent    float64
}

// NewSimulatedLLM builds a simulated batch labeler over the dataset's
// ground truth.
func NewSimulatedLLM(d *dataset.Dataset, cfg LLMSimConfig, seed int64) *SimulatedLLMOracle {
	return &SimulatedLLMOracle{d: d, cfg: cfg, seed: seed, attempts: map[dataset.PairKey]int{}}
}

// Draw salts separate the failure, abstention and noise decision streams
// derived from one attempt ordinal.
const (
	saltFail = iota + 1
	saltAbstain
	saltNoise
)

// LabelBatch implements BatchOracle.
func (o *SimulatedLLMOracle) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.cfg.Latency > 0 {
		timer := time.NewTimer(o.cfg.Latency)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.batches++
	costBatches.Add(1)
	out := make([]Answer, 0, len(pairs))
	for _, p := range pairs {
		o.attempts[p]++
		n := o.attempts[p]
		switch {
		case o.cfg.FailRate > 0 && simDraw(o.seed, p, n, saltFail) < o.cfg.FailRate:
			o.failures++
			costFailures.Add(1)
			out = append(out, Answer{Err: fmt.Errorf("%w (pair %d,%d attempt %d)",
				ErrSimulated, p.L, p.R, n)})
		case o.cfg.AbstainRate > 0 && simDraw(o.seed, p, n, saltAbstain) < o.cfg.AbstainRate:
			o.queries++
			o.abstains++
			o.spent += o.cfg.Price.PerAbstain
			costAbstains.Add(1)
			addCostDollars(o.cfg.Price.PerAbstain)
			out = append(out, Answer{Verdict: VerdictAbstain, Cost: o.cfg.Price.PerAbstain})
		default:
			lab := o.d.IsMatch(p)
			if o.cfg.NoiseRate > 0 && simDraw(o.seed, p, n, saltNoise) < o.cfg.NoiseRate {
				lab = !lab
			}
			o.queries++
			o.labels++
			o.spent += o.cfg.Price.PerLabel
			costLabels.Add(1)
			addCostDollars(o.cfg.Price.PerLabel)
			out = append(out, Answer{Verdict: VerdictOf(lab), Cost: o.cfg.Price.PerLabel})
		}
	}
	return out, nil
}

// Queries implements BatchOracle: acknowledged answers (labels plus
// abstentions; failures excluded).
func (o *SimulatedLLMOracle) Queries() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.queries
}

// MaxAnswerCost implements Priced.
func (o *SimulatedLLMOracle) MaxAnswerCost() float64 { return o.cfg.Price.Max() }

// AdvancePair implements PairAdvancer, fast-forwarding one pair's
// attempt ordinal past answers a crashed process already received.
func (o *SimulatedLLMOracle) AdvancePair(p dataset.PairKey, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempts[p] += n
}

// Spent returns the dollars this instance has billed.
func (o *SimulatedLLMOracle) Spent() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spent
}

// Batches returns how many LabelBatch calls were made.
func (o *SimulatedLLMOracle) Batches() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.batches
}

// Labels returns how many match/non-match verdicts were issued.
func (o *SimulatedLLMOracle) Labels() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.labels
}

// Abstains returns how many abstentions were issued.
func (o *SimulatedLLMOracle) Abstains() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.abstains
}

// Failures returns how many per-pair failures were injected.
func (o *SimulatedLLMOracle) Failures() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failures
}

// simDraw maps (seed, pair, attempt, salt) to a uniform [0, 1) value via
// FNV-1a — cheap, stable across processes, independent of batch
// interleaving, and decorrelated across the salted decision streams.
func simDraw(seed int64, p dataset.PairKey, attempt, salt int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{uint64(seed), uint64(p.L), uint64(p.R), uint64(attempt), uint64(salt)} {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// BatchedOracle adapts a classic per-pair Oracle to the BatchOracle
// contract: each pair is answered by one inner Label call, in submission
// order, with zero cost and zero abstentions. It is how a plain Oracle
// enters the Session engine, which labels only through BatchOracle.
type BatchedOracle struct {
	inner Oracle
}

// Batched lifts a per-pair Oracle into the BatchOracle interface.
func Batched(inner Oracle) *BatchedOracle { return &BatchedOracle{inner: inner} }

// LabelBatch implements BatchOracle. The context is checked before every
// inner query, mirroring the per-pair engine path; on cancellation the
// answered prefix is returned with the context's error.
func (b *BatchedOracle) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]Answer, error) {
	out := make([]Answer, 0, len(pairs))
	costBatches.Add(1)
	for _, p := range pairs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out = append(out, Answer{Verdict: VerdictOf(b.inner.Label(p))})
		costLabels.Add(1)
	}
	return out, nil
}

// Queries implements BatchOracle.
func (b *BatchedOracle) Queries() int { return b.inner.Queries() }

// MaxAnswerCost implements Priced: the wrapped oracle is free.
func (b *BatchedOracle) MaxAnswerCost() float64 { return 0 }

// PerPair implements PerPair.
func (b *BatchedOracle) PerPair() {}

// UnwrapOracle exposes the wrapped oracle so resilience.StatefulOf can
// find a Noisy oracle's RNG hook through the adapter.
func (b *BatchedOracle) UnwrapOracle() any { return b.inner }

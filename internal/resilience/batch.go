package resilience

import (
	"context"

	"github.com/alem/alem/internal/dataset"
	"github.com/alem/alem/internal/oracle"
)

// batchFallible adapts a per-pair FallibleOracle chain to the
// oracle.BatchOracle contract: each pair is answered by one inner Label
// call in submission order, a per-pair error becomes Answer.Err (the
// engine requeues the pair), and a context error aborts the batch with
// the acknowledged prefix. Answers carry zero cost — pricing belongs to
// genuinely billed oracles, not the resilience plumbing.
type batchFallible struct {
	inner FallibleOracle
}

// BatchOf lifts a FallibleOracle — typically a Retrier over a
// FaultyOracle — into the BatchOracle interface, which is how a fallible
// labeler enters the Session engine: failed pairs are requeued, and the
// retry/fault/WAL plumbing runs unchanged.
func BatchOf(fo FallibleOracle) oracle.BatchOracle { return &batchFallible{inner: fo} }

// LabelBatch implements oracle.BatchOracle.
func (b *batchFallible) LabelBatch(ctx context.Context, pairs []dataset.PairKey) ([]oracle.Answer, error) {
	out := make([]oracle.Answer, 0, len(pairs))
	for _, p := range pairs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		lab, err := b.inner.Label(ctx, p)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return out, cerr
			}
			out = append(out, oracle.Answer{Err: err})
			continue
		}
		out = append(out, oracle.Answer{Verdict: oracle.VerdictOf(lab)})
	}
	return out, nil
}

// Queries implements oracle.BatchOracle.
func (b *batchFallible) Queries() int { return b.inner.Queries() }

// MaxAnswerCost implements oracle.Priced: the resilience chain is free.
func (b *batchFallible) MaxAnswerCost() float64 { return 0 }

// PerPair implements oracle.PerPair.
func (b *batchFallible) PerPair() {}

// UnwrapOracle exposes the wrapped chain for StatefulOf.
func (b *batchFallible) UnwrapOracle() any { return b.inner }

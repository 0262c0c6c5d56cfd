package core

import (
	"context"

	"github.com/alem/alem/internal/par"
)

// parallelCutoff is the work-item count below which a fine-grained sweep
// (per-example prediction or scoring) is not worth the goroutine fan-out
// and the serial path is taken instead. Coarse-grained work — training a
// whole committee member per item — passes cutoff 2 instead: there the
// per-item cost dwarfs the fan-out overhead at any size.
const parallelCutoff = 256

// parallelFor runs body(j) for every j in [0, n) across at most workers
// goroutines, splitting the index space into par.Chunks' contiguous
// chunks. It is the deterministic fan-out substrate every parallel hot
// path (evaluation prediction, selector scoring, QBC committee training)
// is built on: body(j) must depend only on j and on state that is
// read-only during the sweep, so the result is bit-identical for every
// worker count — all shared randomness must be pre-drawn before the call.
//
// Below cutoff items (or with one worker) the sweep runs serially on the
// calling goroutine with the same cancellation discipline. Cancelling ctx
// stops every worker within par.CancelStride items; the partial output
// is then meaningless and the context's error is returned.
func parallelFor(ctx context.Context, n, workers, cutoff int, body func(j int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n < cutoff {
		workers = 1
	}
	par.Chunks(n, workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if (j-lo)%par.CancelStride == 0 && ctx.Err() != nil {
				return
			}
			body(j)
		}
	})
	return ctx.Err()
}

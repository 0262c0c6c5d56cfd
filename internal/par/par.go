// Package par is the contiguous-chunk fan-out every parallel loop in the
// module is built on: blocking's index build and verification,
// featurization's row interning and pair extraction, and the core
// package's prediction, scoring and committee sweeps. Chunk bounds depend
// only on the item count and the worker count, so a body that writes
// only its own indices produces the same output at every worker count.
package par

import (
	"runtime"
	"sync"
)

// CancelStride bounds how many work items a worker processes between
// context checks, so cancellation latency stays small without paying a
// per-item context read.
const CancelStride = 64

// Workers resolves a configured worker count: zero or negative means
// "all available CPUs", resolved on the machine doing the work rather
// than the one that wrote the config, which is what keeps snapshots
// portable.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Chunks runs body over [0, n) split into at most workers contiguous
// chunks of ceil(n/workers) items, one goroutine per chunk, and returns
// when every chunk is done. With one worker (or one item) body runs once
// on the calling goroutine. body polls for cancellation itself, which
// lets it keep per-chunk state such as scratch buffers.
func Chunks(n, workers int, body func(lo, hi int)) {
	if n == 0 {
		return
	}
	workers = min(Workers(workers), n)
	if workers == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

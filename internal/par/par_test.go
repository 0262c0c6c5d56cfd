package par

import (
	"sort"
	"sync"
	"testing"
)

// TestChunksBounds pins the chunk layout every parallel loop's output
// depends on: contiguous chunks of ceil(n/w) items, with w the worker
// count clamped to n, covering [0, n) exactly once.
func TestChunksBounds(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 2000} {
			var mu sync.Mutex
			var got [][2]int
			Chunks(n, workers, func(lo, hi int) {
				mu.Lock()
				got = append(got, [2]int{lo, hi})
				mu.Unlock()
			})
			sort.Slice(got, func(a, b int) bool { return got[a][0] < got[b][0] })
			var want [][2]int
			if w := min(workers, n); w > 0 {
				chunk := (n + w - 1) / w
				for lo := 0; lo < n; lo += chunk {
					want = append(want, [2]int{lo, min(lo+chunk, n)})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d workers=%d: chunks %v, want %v", n, workers, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: chunks %v, want %v", n, workers, got, want)
				}
			}
		}
	}
}

// TestChunksSerialOnCaller checks that one worker runs the whole range on
// the calling goroutine, and that a non-positive count means every CPU.
func TestChunksSerialOnCaller(t *testing.T) {
	calls := 0
	Chunks(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("serial chunk [%d, %d), want [0, 10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("serial path ran body %d times, want 1", calls)
	}
	if Workers(0) < 1 || Workers(-3) != Workers(0) || Workers(5) != 5 {
		t.Errorf("Workers(0)=%d Workers(-3)=%d Workers(5)=%d", Workers(0), Workers(-3), Workers(5))
	}
}

package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalizes(t *testing.T) {
	for in, want := range map[int]int{-3: 1, 0: 1, 1: 1, 7: 7} {
		if got := Workers(in); got != want {
			t.Errorf("Workers(%d) = %d want %d", in, got, want)
		}
	}
}

// TestForCoversEveryIndexOnce checks the distribution invariant the parallel
// phases rely on: the chunks tile [0, n) exactly — every index visited once,
// no overlap, no gap — for every (n, workers) shape.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, w := range []int{-1, 0, 1, 2, 3, 8, 64, 2000} {
			seen := make([]int32, n)
			For(n, w, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d w=%d: bad chunk [%d,%d)", n, w, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i := range seen {
				if seen[i] != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, seen[i])
				}
			}
		}
	}
}

// TestForChunkCount checks the dynamic-chunking shape contract: chunk count
// is bounded by workers*forOversub (bounded scheduling overhead) and the
// boundaries depend only on (n, workers) — two runs with the same shape see
// the identical chunk set regardless of which worker claims which chunk.
func TestForChunkCount(t *testing.T) {
	for _, n := range []int{1, 5, 16, 100, 1000} {
		for _, w := range []int{1, 2, 4, 9} {
			collect := func() map[[2]int]bool {
				var mu sync.Mutex
				set := make(map[[2]int]bool)
				For(n, w, func(lo, hi int) {
					mu.Lock()
					set[[2]int{lo, hi}] = true
					mu.Unlock()
				})
				return set
			}
			a, b := collect(), collect()
			max := w * forOversub
			if n < max {
				max = n
			}
			if len(a) > max || len(a) < 1 {
				t.Errorf("n=%d w=%d: %d chunks (want 1..%d)", n, w, len(a), max)
			}
			if len(a) != len(b) {
				t.Fatalf("n=%d w=%d: chunk shape not deterministic (%d vs %d chunks)", n, w, len(a), len(b))
			}
			for c := range a {
				if !b[c] {
					t.Fatalf("n=%d w=%d: chunk %v present in one run only", n, w, c)
				}
			}
		}
	}
}

// TestForSequentialDegenerate checks that workers <= 1 (and n == 1) run fn
// exactly once, inline, over the whole range.
func TestForSequentialDegenerate(t *testing.T) {
	for _, w := range []int{0, 1} {
		calls := 0
		For(10, w, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 10 {
				t.Errorf("w=%d: chunk [%d,%d) want [0,10)", w, lo, hi)
			}
		})
		if calls != 1 {
			t.Errorf("w=%d: fn called %d times want 1", w, calls)
		}
	}
	// n == 1 with many workers must also degenerate to one inline call.
	calls := 0
	For(1, 8, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Errorf("n=1 w=8: fn called %d times want 1", calls)
	}
}

// TestForBoundsWorkerFanOut checks that dynamic chunk claiming still runs at
// most `workers` chunks concurrently: oversubscribed chunks share goroutines,
// they do not multiply them.
func TestForBoundsWorkerFanOut(t *testing.T) {
	for _, w := range []int{2, 4} {
		var cur, max atomic.Int32
		For(1000, w, func(lo, hi int) {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			cur.Add(-1)
		})
		if got := max.Load(); got > int32(w) {
			t.Errorf("w=%d: observed %d concurrent chunks", w, got)
		}
	}
}

func TestForZeroN(t *testing.T) {
	For(0, 4, func(lo, hi int) { t.Error("fn called for n=0") })
	For(-5, 4, func(lo, hi int) { t.Error("fn called for n<0") })
}

// TestForPanicPropagates checks a panic on a worker goroutine reaches the
// caller (instead of crashing the process), on both code paths: raw on the
// sequential path, wrapped in *PanicError on the parallel one.
func TestForPanicPropagates(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("w=%d: panic did not propagate", w)
					return
				}
				if pe, ok := r.(*PanicError); ok {
					r = pe.Panics[0].Value
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Errorf("w=%d: recovered %v want \"boom\"", w, r)
				}
			}()
			For(100, w, func(lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForPanicDeterministic checks that when several chunks panic, the
// re-raised *PanicError joins all of them in chunk order
// (schedule-independent), with the lowest chunk's value first.
func TestForPanicDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok {
					t.Fatalf("recovered value is not *PanicError")
				}
				if len(pe.Panics) != 8 {
					t.Fatalf("joined %d panics want 8", len(pe.Panics))
				}
				for i, wp := range pe.Panics {
					if wp.Value != i {
						t.Fatalf("panic %d has value %v want %d", i, wp.Value, i)
					}
					if len(wp.Stack) == 0 {
						t.Fatalf("panic %d lost its stack", i)
					}
				}
			}()
			For(8, 8, func(lo, hi int) { panic(lo) })
		}()
	}
}

// TestForSequentialPanicUntouched checks that the workers==1 in-place path
// re-raises the original value, not a wrapper: single-threaded callers keep
// ordinary panic semantics.
func TestForSequentialPanicUntouched(t *testing.T) {
	defer func() {
		if r := recover(); r != "raw" {
			t.Fatalf("recovered %v want raw", r)
		}
	}()
	For(4, 1, func(lo, hi int) { panic("raw") })
}

// TestForPanicStillCompletesOtherChunks checks that a panicking chunk does
// not abandon the others: every non-panicking index is still processed
// before the panic is re-raised.
func TestForPanicStillCompletesOtherChunks(t *testing.T) {
	n := 64
	seen := make([]int32, n)
	func() {
		defer func() { recover() }()
		For(n, 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
			if lo == 0 {
				panic("first chunk")
			}
		})
	}()
	for i := range seen {
		if seen[i] != 1 {
			t.Fatalf("index %d visited %d times after panic", i, seen[i])
		}
	}
}

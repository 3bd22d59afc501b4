// Package par provides the deterministic fork-join helper of the fuzz
// campaign, which analyzes independent programs in parallel. One analysis
// never forks: the analyzer pipeline is sequential.
//
// For is shape-deterministic: the decomposition into chunks depends
// only on (n, workers), never on timing, so callers that write disjoint
// index ranges produce identical results for any worker count.
package par

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count option: values below 1 become 1.
func Workers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// WorkerPanic is one worker goroutine's recovered panic with the stack
// captured at the recovery point on that goroutine.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// PanicError joins every worker panic from one fork-join region, ordered by
// chunk index (deterministic for a fixed chunk shape). par.For panics with
// *PanicError when any chunk panics, so no worker's stack is lost.
type PanicError struct {
	Panics []WorkerPanic
}

func (e *PanicError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d worker panic(s)", len(e.Panics))
	for i, p := range e.Panics {
		fmt.Fprintf(&b, "\n[worker panic %d] %v\n%s", i, p.Value, p.Stack)
	}
	return b.String()
}

// forOversub is the chunk oversubscription factor: For carves [0, n) into up
// to workers*forOversub chunks so a straggler chunk (one large program next
// to many small ones) cannot idle the remaining workers for the whole region.
const forOversub = 8

// For splits [0, n) into contiguous chunks and runs fn(lo, hi) on each chunk
// across at most workers goroutines, blocking until all chunks complete. fn
// must only write state disjoint between chunks (e.g. per-index slots).
// workers <= 1 (or small n) degenerates to a plain sequential call.
//
// Chunk boundaries are static — they depend only on (n, workers), never on
// timing — but chunk *assignment* is dynamic: workers claim the next chunk
// off a shared atomic index, so imbalanced chunk costs rebalance instead of
// stalling behind a pre-assigned range. Callers that write disjoint index
// slots therefore still produce identical results for any worker count.
//
// A panic inside fn is caught on its goroutine — with its stack — and
// re-raised on the calling goroutine after every chunk has finished, so
// callers observe the same control flow as the sequential path. When several
// chunks panic, all of them are preserved: the re-raised value is a
// *PanicError joining every worker's panic and stack in chunk order (still
// deterministic for a fixed (n, workers) shape). The sequential degenerate
// path lets panics propagate untouched.
func For(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers*forOversub - 1) / (workers * forOversub)
	nchunks := (n + chunk - 1) / chunk
	panics := make([]WorkerPanic, nchunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nchunks {
					return
				}
				lo := i * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							panics[i] = WorkerPanic{Value: p, Stack: debug.Stack()}
						}
					}()
					fn(lo, hi)
				}()
			}
		}()
	}
	wg.Wait()
	var joined []WorkerPanic
	for _, p := range panics {
		if p.Value != nil {
			joined = append(joined, p)
		}
	}
	if joined != nil {
		panic(&PanicError{Panics: joined})
	}
}

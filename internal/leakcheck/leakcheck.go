// Package leakcheck is a test utility that asserts a block of code leaks no
// goroutines: snapshot the goroutine count, run the block, and require the
// count to settle back to the snapshot. Used by the cancellation and
// fault-injection tests to prove that mid-flight aborts of an analysis, the
// heap sampler's included, never strand a goroutine.
package leakcheck

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"time"
)

// DefaultPatience bounds how long Settle waits for transient goroutines
// (scheduler wind-down is asynchronous; a worker that has returned from its
// function may not yet be reaped when wg.Wait returns).
const DefaultPatience = 5 * time.Second

// Settle polls until the goroutine count drops to at most base, or patience
// (<= 0 means DefaultPatience) elapses. It returns the last observed count;
// a leak is indicated by count > base.
func Settle(base int, patience time.Duration) int {
	if patience <= 0 {
		patience = DefaultPatience
	}
	deadline := time.Now().Add(patience)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Check runs fn and reports whether the goroutine count returned to its
// pre-fn level, with the final count and a goroutine dump on failure.
func Check(fn func()) (ok bool, before, after int, dump string) {
	before = runtime.NumGoroutine()
	fn()
	after = Settle(before, 0)
	if after <= before {
		return true, before, after, ""
	}
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	return false, before, after, buf.String()
}

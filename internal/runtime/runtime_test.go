package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparrow/internal/metrics"
)

// checkpoint runs b.Checkpoint(p) and returns the reason of the *Abort it
// raised, or OK when it returned.
func checkpoint(t *testing.T, b *Budget, p Phase) (r Reason) {
	t.Helper()
	defer func() {
		if x := recover(); x != nil {
			a, ok := x.(*Abort)
			if !ok {
				panic(x)
			}
			if a.Phase != p {
				t.Errorf("Abort phase %v, want %v", a.Phase, p)
			}
			r = a.Reason
		}
	}()
	b.Checkpoint(p)
	return OK
}

// TestNilBudget pins the disabled-instrument contract: New returns nil for
// an empty config, and every method is safe and free on the nil receiver.
func TestNilBudget(t *testing.T) {
	if b := New(Config{}); b != nil {
		t.Fatalf("New(empty) = %v, want nil", b)
	}
	var b *Budget
	b.Close()
	if r := checkpoint(t, b, PhaseFix); r != OK {
		t.Errorf("nil Checkpoint aborted: %v", r)
	}
}

// TestDeadlineBreachAndReset checks that a deadline breach is sticky: the
// deadline is set once, in New, and nothing resets it or the breach.
func TestDeadlineBreachAndReset(t *testing.T) {
	b := New(Config{Deadline: time.Millisecond})
	defer b.Close()
	if r := checkpoint(t, b, PhaseFix); r != OK {
		t.Fatalf("fresh budget breached immediately: %v", r)
	}
	time.Sleep(5 * time.Millisecond)
	if r := checkpoint(t, b, PhaseFix); r != ReasonDeadline {
		t.Fatalf("expired budget Checkpoint = %v want deadline", r)
	}
	// Sticky: the breach persists without re-checking.
	if r := checkpoint(t, b, PhasePrean); r != ReasonDeadline {
		t.Fatalf("Checkpoint after the breach = %v want deadline (sticky)", r)
	}
}

// TestCancellationIsPermanent checks that context cancellation is a sticky
// breach.
func TestCancellationIsPermanent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(Config{Ctx: ctx})
	defer b.Close()
	if r := checkpoint(t, b, PhaseFix); r != OK {
		t.Fatalf("live context Checkpoint = %v want OK", r)
	}
	cancel()
	if r := checkpoint(t, b, PhaseFix); r != ReasonCanceled {
		t.Fatalf("canceled Checkpoint = %v want canceled", r)
	}
	if r := checkpoint(t, b, PhaseDUG); r != ReasonCanceled {
		t.Fatalf("Checkpoint after cancellation = %v want canceled", r)
	}
}

// TestCheckpointPanicsAbort checks that a breached checkpoint panics with
// *Abort naming the breach and the phase.
func TestCheckpointPanicsAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := New(Config{Ctx: ctx})
	defer b.Close()
	defer func() {
		a, ok := recover().(*Abort)
		if !ok {
			t.Fatalf("Checkpoint did not panic *Abort")
		}
		if a.Reason != ReasonCanceled || a.Phase != PhaseDUG {
			t.Fatalf("Abort = %+v want {canceled dug}", a)
		}
	}()
	b.Checkpoint(PhaseDUG)
}

// TestHookOrdinals checks that the fault hook sees 1-based per-phase
// checkpoint ordinals, independent across phases.
func TestHookOrdinals(t *testing.T) {
	type call struct {
		p Phase
		n uint64
	}
	var calls []call
	b := New(Config{Hook: func(p Phase, n uint64) { calls = append(calls, call{p, n}) }})
	defer b.Close()
	b.Checkpoint(PhaseFix)
	b.Checkpoint(PhaseFix)
	b.Checkpoint(PhasePrean)
	b.Checkpoint(PhaseFix)
	want := []call{{PhaseFix, 1}, {PhaseFix, 2}, {PhasePrean, 1}, {PhaseFix, 3}}
	if len(calls) != len(want) {
		t.Fatalf("hook called %d times want %d", len(calls), len(want))
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d = %+v want %+v", i, calls[i], want[i])
		}
	}
}

// TestHeapBudgetBreach checks the soft heap cap: retained growth beyond the
// budget turns into ReasonHeap once the sampler observes it.
func TestHeapBudgetBreach(t *testing.T) {
	b := New(Config{HeapBudget: 1 << 20})
	defer b.Close()
	ballast = make([]byte, 64<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if checkpoint(t, b, PhaseFix) == ReasonHeap {
			ballast = nil
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	ballast = nil
	t.Fatal("heap budget breach never observed")
}

var ballast []byte

// TestReasonErrMapping pins the context-error conventions callers unwrap to.
func TestReasonErrMapping(t *testing.T) {
	if !errors.Is(ReasonDeadline.Err(), context.DeadlineExceeded) {
		t.Error("deadline reason does not map to context.DeadlineExceeded")
	}
	if !errors.Is(ReasonHeap.Err(), context.DeadlineExceeded) {
		t.Error("heap reason does not map to context.DeadlineExceeded")
	}
	if !errors.Is(ReasonCanceled.Err(), context.Canceled) {
		t.Error("canceled reason does not map to context.Canceled")
	}
	if OK.Err() != nil {
		t.Error("OK maps to a non-nil error")
	}
}

// TestMetricsFlush checks Close publishes the runtime counters and timer.
func TestMetricsFlush(t *testing.T) {
	col := metrics.New()
	ctx, cancel := context.WithCancel(context.Background())
	b := New(Config{Ctx: ctx, Metrics: col})
	checkpoint(t, b, PhaseFix)
	cancel()
	checkpoint(t, b, PhaseFix)
	b.Close()
	if got := col.Get(metrics.CtrRuntimeCheckpoints); got != 2 {
		t.Errorf("checkpoints = %d want 2", got)
	}
	if got := col.Get(metrics.CtrRuntimeBreaches); got != 1 {
		t.Errorf("breaches = %d want 1", got)
	}
}

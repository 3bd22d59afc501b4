package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparrow/internal/metrics"
)

// TestNilBudget pins the disabled-instrument contract: New returns nil for
// an empty config, and every method is safe and free on the nil receiver.
func TestNilBudget(t *testing.T) {
	if b := New(Config{}); b != nil {
		t.Fatalf("New(empty) = %v, want nil", b)
	}
	var b *Budget
	b.Close()
	b.Checkpoint(PhaseFix)
	if r := b.Poll(PhaseFix); r != OK {
		t.Errorf("nil Poll = %v want OK", r)
	}
	if r := b.Reason(); r != OK {
		t.Errorf("nil Reason = %v want OK", r)
	}
}

// TestDeadlineBreachAndReset checks that a deadline breach is sticky: the
// deadline is set once, in New, and nothing resets it or the breach.
func TestDeadlineBreachAndReset(t *testing.T) {
	b := New(Config{Deadline: time.Millisecond})
	defer b.Close()
	if r := b.Poll(PhaseFix); r != OK {
		t.Fatalf("fresh budget breached immediately: %v", r)
	}
	time.Sleep(5 * time.Millisecond)
	if r := b.Poll(PhaseFix); r != ReasonDeadline {
		t.Fatalf("expired budget Poll = %v want deadline", r)
	}
	// Sticky: the breach persists without re-checking.
	if r := b.Reason(); r != ReasonDeadline {
		t.Fatalf("Reason = %v want deadline", r)
	}
	if r := b.Poll(PhasePrean); r != ReasonDeadline {
		t.Fatalf("Poll after the breach = %v want deadline (sticky)", r)
	}
}

// TestCancellationIsPermanent checks that context cancellation is a sticky
// breach.
func TestCancellationIsPermanent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(Config{Ctx: ctx})
	defer b.Close()
	if r := b.Poll(PhaseFix); r != OK {
		t.Fatalf("live context Poll = %v want OK", r)
	}
	cancel()
	if r := b.Poll(PhaseFix); r != ReasonCanceled {
		t.Fatalf("canceled Poll = %v want canceled", r)
	}
	if r := b.Reason(); r != ReasonCanceled {
		t.Fatalf("Reason after cancellation = %v want canceled", r)
	}
}

// TestCheckpointPanicsAbort checks the panicking checkpoint used by phases
// that cannot return partial results.
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
	b.Poll(PhaseFix)
	b.Poll(PhaseFix)
	b.Poll(PhasePrean)
	b.Poll(PhaseFix)
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
		if b.Poll(PhaseFix) == ReasonHeap {
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
	b.Poll(PhaseFix)
	cancel()
	b.Poll(PhaseFix)
	b.Close()
	if got := col.Get(metrics.CtrRuntimeCheckpoints); got != 2 {
		t.Errorf("checkpoints = %d want 2", got)
	}
	if got := col.Get(metrics.CtrRuntimeBreaches); got != 1 {
		t.Errorf("breaches = %d want 1", got)
	}
}

// TestLimits pins the fixpoint loops' stop check: the step budget stops
// before step maxSteps+1, and the budget is polled only every stride steps
// and in PhaseFix.
func TestLimits(t *testing.T) {
	var zero Limits
	if zero.Stop(1 << 20) {
		t.Errorf("zero Limits stopped a loop")
	}
	steps := NewLimits(3, nil, 4)
	for step := 1; step <= 4; step++ {
		if got, want := steps.Stop(step), step > 3; got != want {
			t.Errorf("MaxSteps 3: Stop(%d) = %v want %v", step, got, want)
		}
	}

	var polls []Phase
	b := New(Config{Hook: func(p Phase, _ uint64) { polls = append(polls, p) }})
	defer b.Close()
	lim := NewLimits(0, b, 4)
	for step := 1; step <= 8; step++ {
		if lim.Stop(step) {
			t.Fatalf("unbreached budget stopped the loop at %d", step)
		}
	}
	if len(polls) != 2 || polls[0] != PhaseFix {
		t.Errorf("polls %v, want two PhaseFix polls in 8 steps at stride 4", polls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	breached := New(Config{Ctx: ctx})
	defer breached.Close()
	if lim := NewLimits(0, breached, 4); lim.Stop(3) || !lim.Stop(4) {
		t.Errorf("canceled budget: want a stop at the first poll only")
	}
}

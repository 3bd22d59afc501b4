// Package runtime is the engine's budget and cancellation layer.
//
// A Budget carries the caller's context, a per-attempt wall-clock deadline,
// and a soft heap budget through the whole pipeline. Phases poll it at
// amortized checkpoints (every N worklist pops in the solvers, between
// stages elsewhere); a nil *Budget is the disabled instrument, so the
// budget-free hot path pays one pointer comparison per checkpoint window
// and stays bit-identical to an unbudgeted engine.
//
// Breaches are sticky within one attempt. Cancellation (context done) is
// permanent; deadline and heap breaches are cleared by Reset so the
// degradation ladder in core can grant each rung a fresh slice.
//
// The Hook field is the fault-injection seam (internal/faultinject): it is
// called at the top of every checkpoint poll with the phase and that
// phase's checkpoint ordinal, and may panic, sleep, allocate, or cancel —
// exactly the faults the harness injects. Production builds simply leave
// it nil; there is no build tag.
package runtime

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sparrow/internal/metrics"
)

// Phase names the pipeline stage a checkpoint is polled from. Checkpoint
// ordinals are counted per phase so fault schedules can target, say, "the
// third pre-analysis checkpoint" deterministically.
type Phase uint8

// Checkpoint phases.
const (
	PhasePrean Phase = iota // pre-analysis sweeps and summary stages
	PhaseDUG                // def-use-graph construction stages
	PhaseFix                // fixpoint worklist loops (all solvers)
	PhaseIncr               // incremental record/replay driver
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhasePrean: "prean",
	PhaseDUG:   "dug",
	PhaseFix:   "fix",
	PhaseIncr:  "incr",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Reason classifies a budget breach. OK means the budget is intact.
type Reason uint8

// Breach reasons, in increasing permanence: deadline and heap breaches are
// cleared by Reset (the degradation ladder retries a cheaper
// configuration), cancellation is sticky for the Budget's lifetime.
const (
	OK Reason = iota
	ReasonDeadline
	ReasonHeap
	ReasonCanceled
)

var reasonNames = [...]string{
	OK:             "ok",
	ReasonDeadline: "deadline exceeded",
	ReasonHeap:     "heap budget exceeded",
	ReasonCanceled: "canceled",
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Err maps a breach to its conventional context error: deadline and heap
// breaches satisfy errors.Is(err, context.DeadlineExceeded), cancellation
// satisfies errors.Is(err, context.Canceled).
func (r Reason) Err() error {
	switch r {
	case ReasonDeadline, ReasonHeap:
		return context.DeadlineExceeded
	case ReasonCanceled:
		return context.Canceled
	}
	return nil
}

// Hook is the fault-injection checkpoint hook: phase and the 1-based
// ordinal of this checkpoint within that phase. Called from whichever
// goroutine polls, possibly concurrently; implementations must be
// goroutine-safe. A panic raised here propagates like any analysis panic
// and is recovered at the core boundary.
type Hook func(phase Phase, n uint64)

// Abort is the panic value raised by Checkpoint in phases that cannot
// return a partial result (pre-analysis, graph construction, incremental
// replay). It unwinds to the core boundary, which converts it into a
// budget error or a degradation step — it is never seen by callers.
type Abort struct {
	Reason Reason
	Phase  Phase
}

// Config configures a Budget. All zero values mean "unlimited"; New
// returns nil (the disabled instrument) when nothing is limited and no
// hook is installed.
type Config struct {
	// Ctx cancels the analysis cooperatively. nil means context.Background.
	Ctx context.Context
	// Deadline bounds one attempt's wall time; Reset restarts the window.
	Deadline time.Duration
	// HeapBudget is the soft cap, in bytes, on sampled heap growth above
	// the baseline taken when the Budget is created. Enforcement lags by
	// the sampling interval (5ms), hence "soft".
	HeapBudget uint64
	// Hook is the fault-injection checkpoint hook (tests only).
	Hook Hook
	// Metrics receives runtime_* counters and the "runtime" phase timer.
	// When HeapBudget is set and Metrics is nil a private collector is
	// used for its heap sampler.
	Metrics *metrics.Collector
}

// Budget is the cooperative cancellation token threaded through the
// pipeline. The nil Budget is fully functional and free: Poll returns OK,
// Checkpoint is a no-op.
type Budget struct {
	ctx        context.Context
	window     time.Duration // per-attempt deadline width (0 = none)
	deadline   atomic.Int64  // current attempt's deadline, ns since epoch
	heapBudget uint64
	heapCol    *metrics.Collector // owns the sampler (may differ from col)
	stopHeap   func()
	col        *metrics.Collector
	hook       Hook

	breach      atomic.Uint32 // Reason, sticky until Reset
	phaseCounts [NumPhases]atomic.Uint64
	polls       atomic.Int64 // checkpoint polls (flushed to metrics on Close)
	breaches    atomic.Int64 // breach transitions
	pollNS      atomic.Int64 // wall time spent inside Poll slow paths
}

// New builds a Budget, or nil when cfg requests nothing (no context, no
// deadline, no heap budget, no hook) — callers thread the nil through and
// every checkpoint stays a nil check.
func New(cfg Config) *Budget {
	if cfg.Ctx == nil && cfg.Deadline <= 0 && cfg.HeapBudget == 0 && cfg.Hook == nil {
		return nil
	}
	b := &Budget{
		ctx:        cfg.Ctx,
		window:     cfg.Deadline,
		heapBudget: cfg.HeapBudget,
		col:        cfg.Metrics,
		hook:       cfg.Hook,
	}
	if b.ctx == nil {
		b.ctx = context.Background()
	}
	if cfg.HeapBudget > 0 {
		b.heapCol = cfg.Metrics
		if b.heapCol == nil {
			b.heapCol = metrics.New()
		}
		b.stopHeap = b.heapCol.StartHeapSampler(0)
	}
	b.Reset()
	return b
}

// Reset starts a fresh attempt window: the deadline restarts from now and
// deadline/heap breaches are cleared. Cancellation is permanent and stays.
// The degradation ladder calls this before each rung.
func (b *Budget) Reset() {
	if b == nil {
		return
	}
	if b.window > 0 {
		b.deadline.Store(time.Now().Add(b.window).UnixNano())
	}
	b.breach.CompareAndSwap(uint32(ReasonDeadline), uint32(OK))
	b.breach.CompareAndSwap(uint32(ReasonHeap), uint32(OK))
}

// Close stops the heap sampler and flushes the runtime counters and the
// checkpoint timer to the metrics collector. Idempotent only in effect —
// call it once, after the final attempt.
func (b *Budget) Close() {
	if b == nil {
		return
	}
	if b.stopHeap != nil {
		b.stopHeap()
	}
	b.col.Add(metrics.CtrRuntimeCheckpoints, b.polls.Load())
	b.col.Add(metrics.CtrRuntimeBreaches, b.breaches.Load())
	b.col.AddPhase(metrics.PhaseRuntime, time.Duration(b.pollNS.Load()))
}

// DegradeStep records one degradation-ladder rung in the metrics.
func (b *Budget) DegradeStep() {
	if b == nil {
		return
	}
	b.col.Add(metrics.CtrRuntimeDegradeSteps, 1)
}

// Reason returns the sticky breach reason for the current attempt.
func (b *Budget) Reason() Reason {
	if b == nil {
		return OK
	}
	return Reason(b.breach.Load())
}

// Poll is the checkpoint slow path: fire the fault hook, then check
// cancellation, deadline, and heap growth, in that order. The first breach
// is sticky (later polls return it without re-firing the hook). Callers
// amortize: guard the call behind `bud != nil` and a stride counter.
func (b *Budget) Poll(p Phase) Reason {
	if b == nil {
		return OK
	}
	if r := Reason(b.breach.Load()); r != OK {
		return r
	}
	start := time.Now()
	b.polls.Add(1)
	if b.hook != nil {
		b.hook(p, b.phaseCounts[p].Add(1))
	}
	r := OK
	select {
	case <-b.ctx.Done():
		r = ReasonCanceled
	default:
		if b.window > 0 && time.Now().UnixNano() > b.deadline.Load() {
			r = ReasonDeadline
		} else if b.heapBudget > 0 && b.heapCol.PeakHeapBytes() > b.heapBudget {
			r = ReasonHeap
		}
	}
	if r != OK && b.breach.CompareAndSwap(uint32(OK), uint32(r)) {
		b.breaches.Add(1)
	}
	b.pollNS.Add(time.Since(start).Nanoseconds())
	return Reason(b.breach.Load())
}

// Checkpoint polls and panics with *Abort on breach. Phases that cannot
// carry a partial result use it; call it from the goroutine running the
// analysis so the abort reaches core's recover directly.
func (b *Budget) Checkpoint(p Phase) {
	if b == nil {
		return
	}
	if r := b.Poll(p); r != OK {
		panic(&Abort{Reason: r, Phase: p})
	}
}

// Limits is the stop check of the fixpoint worklist loops: a step budget, a
// wall-clock timeout and a Budget poll, the latter two amortized over a
// stride of local steps. The zero Limits never stops a loop.
type Limits struct {
	maxSteps int
	deadline time.Time // zero: no timeout
	bud      *Budget
	stride   int
	poll     bool // a timeout or a budget is set
	phase    Phase
	abort    bool // Checkpoint instead of Poll
}

// NewLimits returns the stop check of a fixpoint loop that may return a
// partial result: stop after maxSteps steps (0 = none) or, polled every
// stride local steps, once timeout (0 = none) has passed since this call or
// bud breaches in PhaseFix.
func NewLimits(maxSteps int, timeout time.Duration, bud *Budget, stride int) Limits {
	l := Limits{maxSteps: maxSteps, bud: bud, stride: stride, poll: timeout > 0 || bud != nil, phase: PhaseFix}
	if timeout > 0 {
		l.deadline = time.Now().Add(timeout)
	}
	return l
}

// AbortLimits returns the stop check of a loop that cannot return a partial
// result: it never stops the loop, but every stride local steps it runs
// bud.Checkpoint(phase), which panics with *Abort on a breach.
func AbortLimits(bud *Budget, phase Phase, stride int) Limits {
	return Limits{bud: bud, stride: stride, poll: bud != nil, phase: phase, abort: true}
}

// Stop reports whether a loop must stop before its step-th step; local
// counts the steps since the loop's last poll origin.
func (l *Limits) Stop(step, local int) bool {
	if l.maxSteps > 0 && step > l.maxSteps {
		return true
	}
	if !l.poll || local%l.stride != 0 {
		return false
	}
	if !l.deadline.IsZero() && time.Now().After(l.deadline) {
		return true
	}
	if l.abort {
		l.bud.Checkpoint(l.phase)
		return false
	}
	return l.bud.Poll(l.phase) != OK
}

// Package runtime is the engine's budget and cancellation layer.
//
// A Budget carries the caller's context, a wall-clock deadline for the
// whole analysis, and a soft heap budget through the pipeline. Every phase
// calls its one stop check, Checkpoint, at amortized points (every N
// worklist pops in the solvers, between stages elsewhere); a nil *Budget is
// the disabled instrument, so the budget-free hot path pays one pointer
// comparison per checkpoint window and stays bit-identical to an
// unbudgeted engine.
//
// A breach panics with *Abort, which unwinds to core's recover: no phase
// returns a partial result. The first breach is sticky: the Budget never
// recovers, and core ends the analysis with a budget error.
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
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhasePrean: "prean",
	PhaseDUG:   "dug",
	PhaseFix:   "fix",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Reason classifies a budget breach. OK means the budget is intact.
type Reason uint8

// Breach reasons.
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

// Abort is the panic value Checkpoint raises on a breach. It unwinds to
// the core boundary, which converts it into a budget error — it is never
// seen by callers.
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
	// Deadline bounds the wall time from New on.
	Deadline time.Duration
	// HeapBudget is the soft cap, in bytes, on sampled heap growth above
	// the baseline taken when the Budget is created. Every poll samples
	// the heap, and a 5ms sampler adds samples between polls; a peak that
	// both miss goes unseen, hence "soft".
	HeapBudget uint64
	// Hook is the fault-injection checkpoint hook (tests only).
	Hook Hook
	// Metrics receives runtime_* counters and the "runtime" phase timer.
	// When HeapBudget is set and Metrics is nil a private collector is
	// used for its heap sampler.
	Metrics *metrics.Collector
}

// Budget is the cooperative cancellation token threaded through the
// pipeline. The nil Budget is fully functional and free: Checkpoint is a
// no-op.
type Budget struct {
	ctx        context.Context
	deadline   int64 // ns since epoch (0 = none)
	heapBudget uint64
	heapCol    *metrics.Collector // owns the sampler (may differ from col)
	stopHeap   func()
	col        *metrics.Collector
	hook       Hook

	breach      atomic.Uint32 // Reason of the first breach, sticky
	phaseCounts [NumPhases]atomic.Uint64
	polls       atomic.Int64 // checkpoint polls (flushed to metrics on Close)
	breaches    atomic.Int64 // breach transitions
	pollNS      atomic.Int64 // wall time spent inside Checkpoint slow paths
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
		heapBudget: cfg.HeapBudget,
		col:        cfg.Metrics,
		hook:       cfg.Hook,
	}
	if b.ctx == nil {
		b.ctx = context.Background()
	}
	if cfg.Deadline > 0 {
		b.deadline = time.Now().Add(cfg.Deadline).UnixNano()
	}
	if cfg.HeapBudget > 0 {
		b.heapCol = cfg.Metrics
		if b.heapCol == nil {
			b.heapCol = metrics.New()
		}
		b.stopHeap = b.heapCol.StartHeapSampler(0)
	}
	return b
}

// Close stops the heap sampler and flushes the runtime counters and the
// checkpoint timer to the metrics collector. Call it once, after the
// analysis.
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

// Checkpoint is the one stop check of every phase: fire the fault hook,
// then check cancellation, deadline, and heap growth, in that order, and
// panic with *Abort on a breach. The first breach is sticky: a later
// checkpoint aborts with it at once, without firing the hook. The
// fixpoint loops amortize it over a stride of steps. Call it from the
// goroutine running the analysis, so that the abort reaches core's
// recover directly.
func (b *Budget) Checkpoint(p Phase) {
	if b == nil {
		return
	}
	if r := Reason(b.breach.Load()); r != OK {
		panic(&Abort{Reason: r, Phase: p})
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
		if b.deadline != 0 && time.Now().UnixNano() > b.deadline {
			r = ReasonDeadline
		} else if b.heapBudget > 0 {
			b.heapCol.SampleHeap()
			if b.heapCol.PeakHeapBytes() > b.heapBudget {
				r = ReasonHeap
			}
		}
	}
	if r != OK && b.breach.CompareAndSwap(uint32(OK), uint32(r)) {
		b.breaches.Add(1)
	}
	b.pollNS.Add(time.Since(start).Nanoseconds())
	if r != OK {
		panic(&Abort{Reason: Reason(b.breach.Load()), Phase: p})
	}
}

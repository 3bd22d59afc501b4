// Package faultinject is the deterministic fault harness for the analysis
// runtime. A Plan is a fixed schedule of faults, each keyed by a pipeline
// phase and a checkpoint ordinal within that phase; the plan's Hook is
// installed as core.Options.FaultHook (the build-tag-free seam in
// internal/runtime) and fires each fault exactly once, the first time its
// checkpoint is reached. Schedules derived from Seeded are a pure function
// of the seed, so a fuzz campaign can replay any failure.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	rt "sparrow/internal/runtime"
)

// Kind is a fault class.
type Kind uint8

// Fault kinds. Panic exercises the core recovery boundary; Slow stalls a
// checkpoint (driving deadline breaches when one is set); AllocSpike
// retains a burst of heap (driving heap-budget breaches); Cancel cancels
// the bound context mid-run.
const (
	Panic Kind = iota
	Slow
	AllocSpike
	Cancel
	numKinds
)

var kindNames = [numKinds]string{
	Panic:      "panic",
	Slow:       "slow",
	AllocSpike: "alloc-spike",
	Cancel:     "cancel",
}

func (k Kind) String() string { return kindNames[k] }

// Fault is one scheduled fault: fire once at the At-th checkpoint (1-based)
// of Phase. Delay applies to Slow, Bytes to AllocSpike.
type Fault struct {
	Kind  Kind
	Phase rt.Phase
	At    uint64
	Delay time.Duration
	Bytes int
}

func (f Fault) String() string {
	return fmt.Sprintf("%s@%s#%d", f.Kind, f.Phase, f.At)
}

// Plan is a deterministic fault schedule plus its firing state. Safe for
// concurrent hook calls.
type Plan struct {
	faults []Fault
	fired  []atomic.Bool

	cancel atomic.Value // context.CancelFunc

	mu      sync.Mutex
	ballast [][]byte // retained AllocSpike allocations
}

// NewPlan builds a plan from an explicit schedule.
func NewPlan(faults ...Fault) *Plan {
	return &Plan{faults: faults, fired: make([]atomic.Bool, len(faults))}
}

// Seeded derives a deterministic random schedule of 1–2 faults across the
// prean/dug/fix phases. Checkpoint ordinals are kept small (solvers poll
// every 256 pops, so high ordinals never fire on small programs — which is
// itself a valid schedule: the oracle then requires bit-identical output).
// Slow delays are kept to a few milliseconds so campaigns stay fast.
func Seeded(seed uint64) *Plan {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 1 + rng.Intn(2)
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{
			Kind:  Kind(rng.Intn(int(numKinds))),
			Phase: []rt.Phase{rt.PhasePrean, rt.PhaseDUG, rt.PhaseFix}[rng.Intn(3)],
			At:    uint64(1 + rng.Intn(4)),
		}
		switch f.Kind {
		case Slow:
			f.Delay = time.Duration(1+rng.Intn(4)) * time.Millisecond
		case AllocSpike:
			f.Bytes = (1 + rng.Intn(8)) << 20
		}
		faults = append(faults, f)
	}
	return NewPlan(faults...)
}

// BindCancel gives Cancel faults a context to cancel. Without it they are
// inert (and report as not fired).
func (p *Plan) BindCancel(cancel context.CancelFunc) {
	p.cancel.Store(cancel)
}

// Hook returns the checkpoint hook to install as core.Options.FaultHook.
func (p *Plan) Hook() rt.Hook {
	return func(phase rt.Phase, n uint64) {
		for i := range p.faults {
			f := &p.faults[i]
			if f.Phase != phase || n < f.At || p.fired[i].Load() {
				continue
			}
			switch f.Kind {
			case Cancel:
				// Needs a bound context; stay unfired otherwise so the
				// oracle expects a fault-free run.
				c, _ := p.cancel.Load().(context.CancelFunc)
				if c == nil {
					continue
				}
				if !p.fired[i].CompareAndSwap(false, true) {
					continue
				}
				c()
			case Panic:
				if !p.fired[i].CompareAndSwap(false, true) {
					continue
				}
				panic(fmt.Sprintf("faultinject: injected panic at %s checkpoint %d", phase, n))
			case Slow:
				if !p.fired[i].CompareAndSwap(false, true) {
					continue
				}
				time.Sleep(f.Delay)
			case AllocSpike:
				if !p.fired[i].CompareAndSwap(false, true) {
					continue
				}
				buf := make([]byte, f.Bytes)
				for j := 0; j < len(buf); j += 4096 {
					buf[j] = 1
				}
				p.mu.Lock()
				p.ballast = append(p.ballast, buf)
				p.mu.Unlock()
			}
		}
	}
}

// Release drops AllocSpike ballast so campaign memory stays bounded.
func (p *Plan) Release() {
	p.mu.Lock()
	p.ballast = nil
	p.mu.Unlock()
}

// Faults returns the schedule.
func (p *Plan) Faults() []Fault { return p.faults }

// Fired returns the faults that actually fired.
func (p *Plan) Fired() []Fault {
	var out []Fault
	for i := range p.faults {
		if p.fired[i].Load() {
			out = append(out, p.faults[i])
		}
	}
	return out
}

// FiredKind reports whether any fault of kind k fired.
func (p *Plan) FiredKind(k Kind) bool {
	for i := range p.faults {
		if p.faults[i].Kind == k && p.fired[i].Load() {
			return true
		}
	}
	return false
}

// AnyFired reports whether any fault fired.
func (p *Plan) AnyFired() bool {
	for i := range p.fired {
		if p.fired[i].Load() {
			return true
		}
	}
	return false
}

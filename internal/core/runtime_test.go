package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sparrow/internal/cgen"
	"sparrow/internal/check"
	"sparrow/internal/faultinject"
	"sparrow/internal/leakcheck"
	rt "sparrow/internal/runtime"
)

// TestConfigGateViolations pins that every unsupported Options combination
// is rejected up front with a typed *ConfigError, never a silent fallback.
func TestConfigGateViolations(t *testing.T) {
	tests := []struct {
		name string
		opt  Options
		frag string // substring of the Opt field
	}{
		{"uninit-octagon", Options{Domain: Octagon, Mode: Sparse, Checkers: []check.Kind{check.UninitRead}}, "Checkers+Domain"},
		{"uninit-duchains", Options{Domain: Interval, Mode: Sparse, DefUseChains: true, Checkers: []check.Kind{check.UninitRead}}, "Checkers+DefUseChains"},
		{"octagon-duchains", Options{Domain: Octagon, Mode: Sparse, DefUseChains: true}, "Domain+DefUseChains"},
		{"unknown-domain", Options{Domain: Octagon + 1, Mode: Sparse}, "Domain"},
		{"unknown-mode", Options{Domain: Interval, Mode: Sparse + 1}, "Mode"},
		{"octagon-unknown-mode", Options{Domain: Octagon, Mode: Sparse + 1}, "Mode"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := AnalyzeSource("gate.c", demo, tc.opt)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if !strings.Contains(ce.Opt, tc.frag) {
				t.Errorf("ConfigError.Opt = %q, want substring %q", ce.Opt, tc.frag)
			}
		})
	}
}

// TestInjectedPanicBecomesAnalysisError checks the panic-isolation boundary:
// a panic at a pre-analysis checkpoint surfaces as a structured
// *AnalysisError carrying the phase and a stack, never as a crash.
func TestInjectedPanicBecomesAnalysisError(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Fault{Kind: faultinject.Panic, Phase: rt.PhasePrean, At: 1})
	_, err := AnalyzeSource("panic.c", demo, Options{
		Domain: Interval, Mode: Sparse, FaultHook: plan.Hook(),
	})
	var ae *AnalysisError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *AnalysisError", err)
	}
	if ae.Phase != "prean" {
		t.Errorf("Phase = %q want prean", ae.Phase)
	}
	if !strings.Contains(ae.Error(), "injected panic") {
		t.Errorf("error message lost the cause: %v", ae)
	}
	if len(ae.Stack) == 0 {
		t.Error("no stack captured")
	}
}

// TestFixpointPanicBecomesAnalysisError checks that a panic raised inside
// the sparse fixpoint is recovered and surfaces as an *AnalysisError of the
// fixpoint phase with its stack preserved.
func TestFixpointPanicBecomesAnalysisError(t *testing.T) {
	src := cgen.Generate(cgen.Default(5, 4000))
	plan := faultinject.NewPlan(faultinject.Fault{Kind: faultinject.Panic, Phase: rt.PhaseFix, At: 1})
	_, err := AnalyzeSource("wpanic.c", src, Options{
		Domain: Interval, Mode: Sparse, FaultHook: plan.Hook(),
	})
	if !plan.AnyFired() {
		t.Skip("no fix-phase checkpoint reached (program converged under the poll stride)")
	}
	var ae *AnalysisError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *AnalysisError", err)
	}
	if ae.Phase != "fixpoint" {
		t.Errorf("Phase = %q want fixpoint", ae.Phase)
	}
	if len(ae.Stack) == 0 {
		t.Error("stack lost")
	}
}

// TestPreCanceledContext checks that cancellation returns a *BudgetError
// unwrapping to context.Canceled, raised at the first pre-analysis
// checkpoint.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnalyzeSource("cancel.c", demo, Options{
		Domain: Octagon, Mode: Sparse, Ctx: ctx,
	})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err does not unwrap to context.Canceled: %v", err)
	}
	if be.Phase != "prean" {
		t.Errorf("Phase = %q want prean", be.Phase)
	}
}

// TestBreachEndsRun checks that the first budget breach ends the analysis:
// whatever breaches (deadline, stall, heap spike, cancellation), the call
// returns a *BudgetError with the breach's reason, sentinel and phase, and
// the checkpoint hook sees the pre-analysis polled by one run only — a
// breach is never followed by another attempt.
func TestBreachEndsRun(t *testing.T) {
	base := Options{Domain: Octagon, Mode: Sparse, Narrow: 2}
	// analyze runs base under plan and counts the pre-analysis polls.
	analyze := func(opt Options, plan *faultinject.Plan) (preanPolls int, err error) {
		hook := plan.Hook()
		opt.FaultHook = func(p rt.Phase, n uint64) {
			if p == rt.PhasePrean {
				preanPolls++
			}
			hook(p, n)
		}
		_, err = AnalyzeSource("breach.c", demo, opt)
		return preanPolls, err
	}
	fullPrean, err := analyze(base, faultinject.NewPlan())
	if err != nil {
		t.Fatalf("unbudgeted run: %v", err)
	}

	tests := []struct {
		name      string
		deadline  time.Duration
		memBudget uint64
		faults    []faultinject.Fault
		cancel    bool
		reason    rt.Reason
		sentinel  error
		phase     string
		prean     int // pre-analysis polls up to the breach
	}{
		{name: "deadline", deadline: time.Nanosecond,
			reason: rt.ReasonDeadline, sentinel: context.DeadlineExceeded, phase: "prean", prean: 1},
		{name: "stall", deadline: 100 * time.Millisecond,
			faults: []faultinject.Fault{{Kind: faultinject.Slow, Phase: rt.PhaseDUG, At: 1, Delay: 200 * time.Millisecond}},
			reason: rt.ReasonDeadline, sentinel: context.DeadlineExceeded, phase: "dug", prean: fullPrean},
		// The checkpoint's own heap sample sees the spike: no stall lets the
		// 5ms sampler catch it first.
		{name: "alloc-spike", memBudget: 16 << 20,
			faults: []faultinject.Fault{
				{Kind: faultinject.AllocSpike, Phase: rt.PhaseDUG, At: 1, Bytes: 64 << 20},
			},
			reason: rt.ReasonHeap, sentinel: context.DeadlineExceeded, phase: "dug", prean: fullPrean},
		{name: "cancel", cancel: true,
			faults: []faultinject.Fault{{Kind: faultinject.Cancel, Phase: rt.PhasePrean, At: 1}},
			reason: rt.ReasonCanceled, sentinel: context.Canceled, phase: "prean", prean: 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			plan := faultinject.NewPlan(tc.faults...)
			defer plan.Release()
			opt := base
			opt.Deadline, opt.MemBudget = tc.deadline, tc.memBudget
			if tc.cancel {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				plan.BindCancel(cancel)
				opt.Ctx = ctx
			}
			prean, err := analyze(opt, plan)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want *BudgetError", err)
			}
			if be.Reason != tc.reason || be.Phase != tc.phase {
				t.Errorf("breach %v during %q, want %v during %q", be.Reason, be.Phase, tc.reason, tc.phase)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("err %v does not unwrap to %v", err, tc.sentinel)
			}
			if len(plan.Fired()) != len(tc.faults) {
				t.Errorf("fired %v of %v", plan.Fired(), tc.faults)
			}
			if prean != tc.prean {
				t.Errorf("pre-analysis polled %d times, want %d (a full run polls %d)", prean, tc.prean, fullPrean)
			}
		})
	}
}

// TestBudgetedRunBitIdentical checks that merely having a budget (generous
// deadline, no faults) does not perturb the fixpoint: the polling fast path
// must be invisible.
func TestBudgetedRunBitIdentical(t *testing.T) {
	src := cgen.Generate(cgen.Default(21, 400))
	plain, err := AnalyzeSource("bit.c", src, Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := AnalyzeSource("bit.c", src, Options{
		Domain: Interval, Mode: Sparse, Deadline: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if diffs, err := DiffSparseRuns(plain, budgeted, 5); err != nil {
		t.Fatal(err)
	} else if len(diffs) != 0 {
		t.Errorf("budgeted run differs: %v", diffs)
	}
	if plain.Stats.Steps != budgeted.Stats.Steps {
		t.Errorf("step counts differ: %d vs %d", plain.Stats.Steps, budgeted.Stats.Steps)
	}
}

// TestMidFlightCancellationNoLeaks drives mid-flight cancellation (an
// injected Cancel fault) through the sparse solver and the graph builder
// and checks that the error names the phase and no goroutine survives the
// aborted analysis.
func TestMidFlightCancellationNoLeaks(t *testing.T) {
	src := cgen.Generate(cgen.Default(5, 4000))
	for _, phase := range []rt.Phase{rt.PhaseDUG, rt.PhaseFix} {
		t.Run(phase.String(), func(t *testing.T) {
			plan := faultinject.NewPlan(faultinject.Fault{Kind: faultinject.Cancel, Phase: phase, At: 1})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			plan.BindCancel(cancel)
			var err error
			var fired bool
			ok, before, after, dump := leakcheck.Check(func() {
				_, err = AnalyzeSource("leak.c", src, Options{
					Domain: Interval, Mode: Sparse,
					Ctx: ctx, FaultHook: plan.Hook(),
				})
				fired = plan.FiredKind(faultinject.Cancel)
			})
			if !ok {
				t.Fatalf("goroutines leaked: %d -> %d\n%s", before, after, dump)
			}
			if fired {
				var be *BudgetError
				if !errors.As(err, &be) || !errors.Is(err, context.Canceled) || be.Phase != phase.String() {
					t.Errorf("canceled run returned %v, want a canceled *BudgetError during %s", err, phase)
				}
			} else if err != nil {
				t.Errorf("fault never fired but analysis failed: %v", err)
			}
		})
	}
}

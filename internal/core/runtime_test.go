package core

import (
	"context"
	"errors"
	"slices"
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
// unwrapping to context.Canceled, without walking the degradation ladder.
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
	if len(be.Degraded) != 0 {
		t.Errorf("canceled run walked the ladder: %v", be.Degraded)
	}
}

// TestDegradationLadderOctagonToInterval is the end-to-end ladder check: an
// octagon-sparse run whose first attempt breaches its deadline (a one-shot
// injected stall) degrades to interval-sparse, completes, and reports the
// same alarms and exit state as a direct interval-sparse run.
func TestDegradationLadderOctagonToInterval(t *testing.T) {
	plan := faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.Slow, Phase: rt.PhasePrean, At: 1, Delay: 400 * time.Millisecond,
	})
	res, err := AnalyzeSource("ladder.c", demo, Options{
		Domain: Octagon, Mode: Sparse,
		Deadline:  100 * time.Millisecond,
		FaultHook: plan.Hook(),
	})
	if err != nil {
		t.Fatalf("degraded analysis failed outright: %v", err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0] != "octagon-to-interval" {
		t.Fatalf("Degraded = %v, want [octagon-to-interval]", res.Degraded)
	}
	if res.Opts.Domain != Interval {
		t.Errorf("executed domain = %v, want Interval", res.Opts.Domain)
	}
	if !plan.FiredKind(faultinject.Slow) {
		t.Error("stall fault never fired; the breach came from elsewhere")
	}

	direct, err := AnalyzeSource("ladder.c", demo, Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if diffs, err := DiffSparseRuns(res, direct, 5); err != nil {
		t.Fatalf("diff: %v", err)
	} else if len(diffs) != 0 {
		t.Errorf("degraded result differs from direct interval-sparse run: %v", diffs)
	}
	if got, want := len(res.Alarms()), len(direct.Alarms()); got != want {
		t.Errorf("degraded run has %d alarms, direct run %d", got, want)
	}
}

// TestLadderCompletesRestrictedRung walks the ladder down to its last rung
// and lets that rung finish: two one-shot stalls breach the first two
// attempts (prean checkpoint ordinals run on across attempts, so the second
// stall waits at ordinal 2), and the restricted attempt completes. Its
// alarms of every kind must equal those of a direct full run of the
// configuration it degraded to.
func TestLadderCompletesRestrictedRung(t *testing.T) {
	for _, name := range []string{"overruns.c", "uninit.c"} {
		t.Run(name, func(t *testing.T) {
			src := corpusFile(t, name)
			plan := faultinject.NewPlan(
				faultinject.Fault{Kind: faultinject.Slow, Phase: rt.PhasePrean, At: 1, Delay: 400 * time.Millisecond},
				faultinject.Fault{Kind: faultinject.Slow, Phase: rt.PhasePrean, At: 2, Delay: 400 * time.Millisecond},
			)
			res, err := AnalyzeSource(name, src, Options{
				Domain: Interval, Mode: Sparse, Narrow: 2, Checkers: check.AllKinds,
				Deadline:  100 * time.Millisecond,
				FaultHook: plan.Hook(),
			})
			if err != nil {
				t.Fatalf("degraded analysis failed outright: %v", err)
			}
			if want := []string{"skip-narrowing", "restricted-checkers"}; !slices.Equal(res.Degraded, want) {
				t.Fatalf("Degraded = %v, want %v", res.Degraded, want)
			}
			if len(plan.Fired()) != 2 || !res.Opts.restricted {
				t.Fatalf("fired %v, restricted %v; want both stalls and the restricted rung", plan.Fired(), res.Opts.restricted)
			}
			direct, err := AnalyzeSource(name, src, Options{Domain: Interval, Mode: Sparse, Checkers: check.AllKinds})
			if err != nil {
				t.Fatal(err)
			}
			got, want := alarmStrings(res.Alarms()), alarmStrings(direct.Alarms())
			if len(want) == 0 {
				t.Fatal("the direct run raises no alarm; the comparison would be vacuous")
			}
			if !slices.Equal(got, want) {
				t.Errorf("restricted rung alarms\n  %v\nwant\n  %v", got, want)
			}
		})
	}
}

func alarmStrings(as []check.Alarm) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return out
}

// TestLadderExhaustsToBudgetError checks the ladder bottom: with a deadline
// no configuration can meet, every rung is attempted and the final error
// lists them all and unwraps to context.DeadlineExceeded.
func TestLadderExhaustsToBudgetError(t *testing.T) {
	_, err := AnalyzeSource("exhaust.c", demo, Options{
		Domain: Octagon, Mode: Sparse, Narrow: 2,
		Deadline: time.Nanosecond,
	})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err does not unwrap to DeadlineExceeded: %v", err)
	}
	want := []string{"octagon-to-interval", "skip-narrowing", "restricted-checkers"}
	if len(be.Degraded) != len(want) {
		t.Fatalf("Degraded = %v, want %v", be.Degraded, want)
	}
	for i := range want {
		if be.Degraded[i] != want[i] {
			t.Fatalf("Degraded = %v, want %v", be.Degraded, want)
		}
	}
}

// TestNoDegradeFailsFast checks NoDegrade turns the first breach into the
// final error without retrying cheaper configurations.
func TestNoDegradeFailsFast(t *testing.T) {
	_, err := AnalyzeSource("nodegrade.c", demo, Options{
		Domain: Octagon, Mode: Sparse,
		Deadline: time.Nanosecond, NoDegrade: true,
	})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if len(be.Degraded) != 0 {
		t.Errorf("NoDegrade still degraded: %v", be.Degraded)
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
	if len(budgeted.Degraded) != 0 {
		t.Fatalf("budgeted run degraded: %v", budgeted.Degraded)
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
// and checks no goroutine survives the aborted analysis.
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
				if !errors.Is(err, context.Canceled) {
					t.Errorf("canceled run returned %v, want context.Canceled", err)
				}
			} else if err != nil {
				t.Errorf("fault never fired but analysis failed: %v", err)
			}
		})
	}
}

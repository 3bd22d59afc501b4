package core

import (
	"errors"
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/faultinject"
	"sparrow/internal/leakcheck"
	rt "sparrow/internal/runtime"
)

// TestInjectedComponentPanicNoLeaks injects a panic at a fixpoint checkpoint
// of the sparse solver and checks the contract from the fault-tolerance
// layer survives: the panic surfaces as a structured *AnalysisError and no
// goroutine outlives the aborted analysis.
func TestInjectedComponentPanicNoLeaks(t *testing.T) {
	src := cgen.Generate(cgen.Default(5, 4000))
	plan := faultinject.NewPlan(faultinject.Fault{
		Kind: faultinject.Panic, Phase: rt.PhaseFix, At: 1,
	})
	var err error
	ok, before, after, dump := leakcheck.Check(func() {
		_, err = AnalyzeSource("cpanic.c", src, Options{
			Domain: Interval, Mode: Sparse, FaultHook: plan.Hook(),
		})
	})
	if !ok {
		t.Fatalf("goroutines leaked: %d -> %d\n%s", before, after, dump)
	}
	if !plan.FiredKind(faultinject.Panic) {
		t.Skip("no fix-phase checkpoint reached under the poll stride")
	}
	var ae *AnalysisError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *AnalysisError", err)
	}
	if ae.Phase != "fixpoint" {
		t.Errorf("Phase = %q want fixpoint", ae.Phase)
	}
}

// TestSeededFaultPlansNoLeaks sweeps seeded random fault schedules (panics,
// stalls, allocation spikes, cancellations) through the sparse pipeline
// and requires every outcome to be clean: either a
// successful analysis or a structured error, never a leaked goroutine. This
// is the in-tree slice of the faults fuzz oracle.
func TestSeededFaultPlansNoLeaks(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	src := cgen.Generate(cgen.Default(17, 2500))
	for seed := 0; seed < n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := faultinject.Seeded(uint64(9000 + seed))
			var err error
			ok, before, after, dump := leakcheck.Check(func() {
				_, err = AnalyzeSource("fault.c", src, Options{
					Domain: Interval, Mode: Sparse,
					FaultHook: plan.Hook(),
				})
			})
			if !ok {
				t.Fatalf("goroutines leaked: %d -> %d\n%s", before, after, dump)
			}
			if err != nil {
				var ae *AnalysisError
				var be *BudgetError
				if !errors.As(err, &ae) && !errors.As(err, &be) {
					t.Fatalf("unstructured failure: %v", err)
				}
			}
		})
	}
}

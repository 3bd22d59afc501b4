// Package sparrow is a sound, global, and scalable static analyzer for
// C-like programs: a from-scratch Go implementation of the sparse
// abstract-interpretation framework of
//
//	Oh, Heo, Lee, Lee, Yi.
//	"Design and Implementation of Sparse Global Analyses for C-like
//	Languages", PLDI 2012.
//
// The analyzer offers two abstract domains (intervals with points-to and
// array-region tracking; packed octagons) and three fixpoint strategies
// per domain:
//
//	Vanilla — conventional dense analysis along control flow,
//	Base    — dense analysis with access-based localization,
//	Sparse  — the paper's framework: values propagate along data
//	          dependencies derived from a flow-insensitive pre-analysis,
//	          preserving the precision of Base (Lemma 2 of the paper).
//
// Quick start:
//
//	res, err := sparrow.AnalyzeSource("prog.c", src, sparrow.Options{
//		Domain: sparrow.Interval,
//		Mode:   sparrow.Sparse,
//	})
//	if err != nil { ... }
//	iv, _ := res.GlobalAtExit("g")     // interval of global g at exit
//	for _, a := range res.Alarms() {   // buffer-overrun / null-deref reports
//		fmt.Println(a)
//	}
package sparrow

import (
	"sparrow/internal/core"
)

// Options configures an analysis; the zero value is Interval/Vanilla.
type Options = core.Options

// Result is a completed analysis.
type Result = core.Result

// Stats summarizes a run (the paper's Table 1–3 columns).
type Stats = core.Stats

// CheckerRun is the outcome of one per-checker restricted solve (see
// Result.AnalyzeChecker).
type CheckerRun = core.CheckerRun

// ConfigError reports an invalid Options combination, rejected before any
// analysis work starts.
type ConfigError = core.ConfigError

// AnalysisError wraps a panic recovered from inside the analysis with the
// pipeline phase and the captured stack.
type AnalysisError = core.AnalysisError

// BudgetError reports that the deadline, heap budget, or context
// cancellation stopped the analysis. The first breach ends the run; nothing
// is retried. It unwraps to context.DeadlineExceeded or context.Canceled.
type BudgetError = core.BudgetError

// Domain selects the abstract domain.
type Domain = core.Domain

// Mode selects the fixpoint strategy.
type Mode = core.Mode

// Domains.
const (
	Interval = core.Interval
	Octagon  = core.Octagon
)

// Modes.
const (
	Vanilla = core.Vanilla
	Base    = core.Base
	Sparse  = core.Sparse
)

// AnalyzeSource parses, lowers and analyzes a C-like translation unit. The
// name is used in diagnostics only.
func AnalyzeSource(name, src string, opt Options) (*Result, error) {
	return core.AnalyzeSource(name, src, opt)
}

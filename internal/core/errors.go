// Structured errors of the fault-tolerant analysis runtime. Every failure
// mode an embedding server must distinguish has a typed error:
//
//	*ConfigError    the Options combination is invalid (caller bug)
//	*AnalysisError  a panic escaped an analysis phase (engine bug, isolated)
//	*BudgetError    deadline/heap/cancellation breach after the degradation
//	                ladder (if any) was exhausted
//
// All are errors.As-matchable; BudgetError additionally unwraps to
// context.DeadlineExceeded or context.Canceled so generic context plumbing
// (errors.Is) classifies it without importing this package.
package core

import (
	"fmt"
	"strings"

	rt "sparrow/internal/runtime"
)

// ConfigError reports an invalid Options combination. The engine never
// silently falls back from an unsupported configuration: it names the
// offending option and why it is rejected.
type ConfigError struct {
	Opt    string // the offending option, e.g. "Checkers+Domain"
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid configuration %s: %s", e.Opt, e.Reason)
}

// AnalysisError is a panic recovered at the analysis boundary: any panic
// raised inside AnalyzeProgram is converted into one of these instead of
// crashing the host process. Cause is the original panic value.
type AnalysisError struct {
	Phase string // pipeline stage that panicked: "prean", "dug_build", "fixpoint", ...
	Cause any
	Stack string // stack captured at the recovery point
}

func (e *AnalysisError) Error() string {
	return fmt.Sprintf("core: panic during %s: %v", e.Phase, e.Cause)
}

// BudgetError reports that an analysis could not complete within its
// resource budget: the context was canceled, or the wall-clock deadline or
// heap budget was breached and every degradation rung (Degraded lists the
// ones attempted) breached too.
type BudgetError struct {
	Reason   rt.Reason
	Phase    string   // stage active at the final breach ("" when unknown)
	Degraded []string // ladder rungs attempted before giving up
}

func (e *BudgetError) Error() string {
	msg := fmt.Sprintf("core: analysis aborted: %s", e.Reason)
	if e.Phase != "" {
		msg += " during " + e.Phase
	}
	if len(e.Degraded) > 0 {
		msg += " (after degrading: " + strings.Join(e.Degraded, ", ") + ")"
	}
	return msg
}

// Unwrap maps the breach onto the conventional context sentinel errors.
func (e *BudgetError) Unwrap() error { return e.Reason.Err() }

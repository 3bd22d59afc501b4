// Component sparse solver: the def-use graph's SCC condensation is a DAG of
// components (dug.Partition), and values flow only along dependency edges, so
// a component's fixpoint depends on nothing but its condensation
// predecessors. The solver runs the same transfer loop one component at a
// time, in the canonical wave schedule of compsched.Driver.Components. The
// incremental solver (incr.go) is this solver with a memo attached.
package sparse

import (
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

// AnalyzeComponents runs the sparse analysis over the def-use graph's
// component partition in the sequential wave schedule. Result.Rounds counts
// the waves.
func AnalyzeComponents(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options) *Result {
	st := newStore(prog, pre, g, opt, nil)
	st.d.Components()
	return st.finish()
}

// Package driver is the sparse solvers' shared driver (Driver): control
// reachability, the global priority worklist and the stop check, used by
// the interval and octagon solvers alike.
package driver

import (
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/worklist"
)

// Driver is the domain-independent half of the sparse solvers (interval and
// octagon): control reachability, the priority worklist over the whole
// def-use graph, and the stop check. A domain keeps its value state and one
// fire step; fire reports work back through MarkSuccs and Schedule.
//
// A point fires only once reachable, so the domains gate their transfers on
// Reached: the dense solvers prune CFG-unreachable code, and the sparse
// solvers keep their precision by tracking the same reachability.
type Driver struct {
	// Reached[pt] is control reachability per point.
	Reached []bool
	// Steps counts node firings, including the one a stop check refused.
	Steps int
	// TimedOut reports a run the stop check ended early.
	TimedOut bool

	prog *ir.Program
	pre  *prean.Result
	lim  rt.Limits
	fire func(dug.NodeID)
	wl   *worklist.Worklist
	mark func(ir.PointID) // mark as a func value, bound once so MarkSuccs allocates nothing
}

// New returns a driver over g that fires nodes with fire and stops when lim
// says so.
func New(prog *ir.Program, pre *prean.Result, g *dug.Graph, lim rt.Limits, fire func(dug.NodeID)) *Driver {
	d := &Driver{
		Reached: make([]bool, g.PointCount),
		prog:    prog,
		pre:     pre,
		lim:     lim,
		fire:    fire,
		wl:      worklist.New(g.NumNodes(), g.Prio),
	}
	d.mark = d.markPoint
	return d
}

// Global solves with one priority worklist over the whole graph, starting
// from main's entry, until the worklist is empty or the stop check fires.
func (d *Driver) Global() {
	root := d.prog.ProcByID(d.prog.Main).Entry
	d.Reached[root] = true
	d.wl.Add(int(root))
	for {
		id, ok := d.wl.Take()
		if !ok {
			return
		}
		d.Steps++
		if d.lim.Stop(d.Steps) {
			d.TimedOut = true
			return
		}
		d.fire(dug.NodeID(id))
	}
}

// MarkSuccs marks every control-reachability target of a point that fired.
func (d *Driver) MarkSuccs(pt *ir.Point) {
	ReachTargets(d.prog, d.pre, pt, d.mark)
}

// markPoint records reachability of t and feeds it to the worklist the
// first time.
func (d *Driver) markPoint(t ir.PointID) {
	if !d.Reached[t] {
		d.Reached[t] = true
		d.wl.Add(int(t))
	}
}

// Schedule enqueues node n after its input grew.
func (d *Driver) Schedule(n dug.NodeID) {
	d.wl.Add(int(n))
}

// ReachTargets visits the control-reachability targets of one point: callee
// entries for resolved calls, return sites for exits, plain CFG successors
// otherwise (including calls with no resolved callee).
func ReachTargets(prog *ir.Program, pre *prean.Result, pt *ir.Point, visit func(ir.PointID)) {
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				visit(s)
			}
			return
		}
		for _, cp := range callees {
			visit(prog.ProcByID(cp).Entry)
		}
	case ir.Exit:
		for _, rs := range pre.RetSites[pt.Proc] {
			visit(rs)
		}
	default:
		for _, s := range pt.Succs {
			visit(s)
		}
	}
}

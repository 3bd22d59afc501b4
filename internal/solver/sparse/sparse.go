// Package sparse implements the sparse fixpoint computation of Section 2.7:
// F̂_a(X) = λc. f#_c(⊔_{cd ↝(l) c} X(cd)|l) — abstract values propagate along
// the approximated data dependencies of the def-use graph instead of control
// flow, visiting only the entries in D̂(c)/Û(c) at each node.
//
// The solver additionally tracks control reachability (the production dense
// solver prunes CFG-unreachable code, so the sparse solver gates node
// transfers on the same reachability to preserve its precision): a point
// fires only once reachable, and refuted assumes propagate neither values
// nor reachability.
package sparse

import (
	"time"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/worklist"
)

// Options configures the sparse solver.
type Options struct {
	// Timeout aborts after the wall-clock budget (0 = none).
	Timeout time.Duration
	// MaxSteps aborts after this many node firings (0 = none).
	MaxSteps int
	// WidenThreshold forces widening at nodes updated more than this many
	// times (safety valve; 0 uses the default).
	WidenThreshold int
	// EntryWidenDelay starts widening at procedure entry nodes after this
	// many changed firings, cutting the spurious interprocedural feedback
	// cycles exactly as the dense solver does (see dense.Options). 0 uses
	// the default.
	EntryWidenDelay int
	// Narrow runs this many descending (narrowing) Jacobi sweeps over the
	// def-use graph after the ascending fixpoint, recovering precision lost
	// to widening. Each sweep recomputes every node's incoming values from
	// the current outputs and narrows the accumulated inputs towards them.
	Narrow int
	// Metrics, when non-nil, receives the solver's work counters (node
	// firings, value-changing joins, effective widenings, rounds) when the
	// run completes. Counting happens in Result fields on the hot path and
	// flushes once, so the instrumented counters equal the Result's.
	Metrics *metrics.Collector
	// EntryMarks is forwarded to the semantics (sem.Sem.EntryMarks): the
	// per-procedure locations an Entry marks possibly-uninitialized for the
	// uninit checker. Must match the EntryMarks the def-use graph was built
	// with (dug.Options.EntryMarks), or entry definitions and dependency
	// edges disagree. Nil (the default) disables marking.
	EntryMarks func(ir.ProcID) []ir.LocID
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled at the same amortized stride as the Timeout check. On breach
	// the solver stops exactly like a timeout (TimedOut set, partial
	// result); the core boundary inspects the budget to tell them apart.
	// nil (the default) is free: the hot loop pays one pointer comparison
	// per stride window.
	Budget *rt.Budget
}

const (
	defaultWidenThreshold  = 40
	defaultEntryWidenDelay = 4
)

// Result is the sparse fixpoint.
type Result struct {
	// Acc[n] is the partial memory accumulated at node n over Û(n) (the
	// join of incoming dependency values).
	Acc []mem.Mem
	// Out[n] is the partial memory produced at node n over D̂(n). By
	// Lemma 2 it agrees with the dense fixpoint on D̂(n).
	Out []mem.Mem
	// Reached[pt] is control reachability per point.
	Reached []bool
	// Steps counts node firings.
	Steps int
	// Widenings counts effective widening applications (widened value ≠
	// plain join); zero means the run computed the schedule-independent
	// least fixpoint (see the dense counterpart).
	Widenings int
	// Joins counts per-location pushes that changed a node's stored output
	// (ascending phase only).
	Joins int
	// Rounds counts the component-wave rounds of AnalyzeComponents (0 for
	// the global-worklist solver).
	Rounds int
	// TimedOut reports an aborted run.
	TimedOut bool
}

type solver struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	s    *sem.Sem
	opt  Options
	res  *Result
	wl   *worklist.Worklist

	// counts are the widening safety-valve counters, one per (node, def
	// location): slot cbase[n]+i counts the value-changing pushes of
	// Defs[n][i]. Keying the counters by location (not by firing) makes a
	// location's widening schedule a function of its own update history
	// alone, which is what lets a solve restricted to a subset of the
	// locations reproduce the full solve's widening decisions exactly (the
	// per-checker restricted runs rely on this).
	counts   []int32
	cbase    []int32
	deadline time.Time
}

// defOffsets returns the prefix sums of len(g.Defs[n]) — the slot bases of
// the per-(node, location) widening counters.
func defOffsets(g *dug.Graph) []int32 {
	n := g.NumNodes()
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int32(len(g.Defs[i]))
	}
	return off
}

// Analyze runs the sparse analysis over the def-use graph g.
func Analyze(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options) *Result {
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
	n := g.NumNodes()
	cbase := defOffsets(g)
	sv := &solver{
		prog: prog,
		pre:  pre,
		g:    g,
		s:    &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle, EntryMarks: opt.EntryMarks},
		opt:  opt,
		res: &Result{
			Acc:     make([]mem.Mem, n),
			Out:     make([]mem.Mem, n),
			Reached: make([]bool, g.PointCount),
		},
		counts: make([]int32, cbase[n]),
		cbase:  cbase,
		wl:     worklist.New(n, g.Prio),
	}
	if opt.Timeout > 0 {
		sv.deadline = time.Now().Add(opt.Timeout)
	}
	root := prog.ProcByID(prog.Main)
	sv.res.Reached[root.Entry] = true
	sv.wl.Add(int(root.Entry))
	for {
		id, ok := sv.wl.Take()
		if !ok {
			break
		}
		sv.res.Steps++
		if sv.opt.MaxSteps > 0 && sv.res.Steps > sv.opt.MaxSteps {
			sv.res.TimedOut = true
			break
		}
		if (sv.opt.Timeout > 0 || sv.opt.Budget != nil) && sv.res.Steps%256 == 0 {
			if sv.opt.Timeout > 0 && time.Now().After(sv.deadline) {
				sv.res.TimedOut = true
				break
			}
			if sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
				sv.res.TimedOut = true
				break
			}
		}
		sv.fire(dug.NodeID(id))
	}
	if opt.Narrow > 0 && !sv.res.TimedOut {
		sv.narrow(opt.Narrow)
	}
	flushMetrics(opt.Metrics, sv.res)
	return sv.res
}

// flushMetrics pushes a completed run's work counters into the collector.
func flushMetrics(col *metrics.Collector, res *Result) {
	col.Add(metrics.CtrPops, int64(res.Steps))
	col.Add(metrics.CtrJoins, int64(res.Joins))
	col.Add(metrics.CtrWidenings, int64(res.Widenings))
	col.Add(metrics.CtrRounds, int64(res.Rounds))
}

// outOf recomputes a node's output memory from its current accumulated
// input (the f#_c(acc) of the descending phase). ok is false for refuted
// assumes and unreachable points.
func (sv *solver) outOf(n dug.NodeID) (mem.Mem, bool) {
	if sv.g.IsPhi(n) {
		return sv.res.Acc[n], true
	}
	pt := sv.prog.Point(ir.PointID(n))
	if !sv.res.Reached[pt.ID] {
		return mem.Bot, false
	}
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		out := sv.res.Acc[n]
		for _, p := range sv.pre.CalleesOf(pt.ID) {
			out = sv.s.BindFormals(pt, sv.prog.ProcByID(p), out)
		}
		return out, true
	}
	return sv.s.Transfer(pt, sv.res.Acc[n])
}

// narrow runs descending Jacobi sweeps: recompute every node's output from
// its (current) input, rebuild the inputs as the join of dependency
// predecessors' outputs, and narrow the stored inputs/outputs towards them.
// Sweeps stop early at stability.
func (sv *solver) narrow(passes int) {
	n := sv.g.NumNodes()
	for pass := 0; pass < passes; pass++ {
		if sv.opt.Budget != nil && sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
			sv.res.TimedOut = true
			return
		}
		outs := make([]mem.Mem, n)
		okv := make([]bool, n)
		for i := 0; i < n; i++ {
			outs[i], okv[i] = sv.outOf(dug.NodeID(i))
		}
		// Rebuild inputs from the recomputed outputs.
		newAcc := make([]mem.Mem, n)
		for i := 0; i < n; i++ {
			if !okv[i] {
				continue
			}
			cur := sv.g.Out(dug.NodeID(i))
			for _, l := range sv.g.Defs[dug.NodeID(i)] {
				v := outs[i].Get(l)
				if v.IsBot() {
					continue
				}
				for _, succ := range cur.Seek(l) {
					newAcc[succ] = newAcc[succ].WeakSet(l, v)
				}
			}
		}
		stable := true
		for i := 0; i < n; i++ {
			na, nch := sv.res.Acc[i].NarrowChanged(newAcc[i])
			if nch {
				stable = false
				sv.res.Acc[i] = na
			}
		}
		// Refresh stored outputs from the narrowed inputs so Out keeps
		// agreeing with f#(Acc) on D̂. Detect first (allocation-free), then
		// rebuild only on change — the rebuild binds every def location,
		// explicit bottoms included, exactly as before.
		for i := 0; i < n; i++ {
			out, ok := sv.outOf(dug.NodeID(i))
			if !ok {
				continue
			}
			changed := false
			for _, l := range sv.g.Defs[dug.NodeID(i)] {
				if _, ch := sv.res.Out[i].Get(l).NarrowChanged(out.Get(l)); ch {
					changed = true
					break
				}
			}
			if !changed {
				continue
			}
			refreshed := sv.res.Out[i]
			for _, l := range sv.g.Defs[dug.NodeID(i)] {
				refreshed = refreshed.Set(l, sv.res.Out[i].Get(l).Narrow(out.Get(l)))
			}
			stable = false
			sv.res.Out[i] = refreshed
		}
		if stable {
			return
		}
	}
}

// fire processes one node: transfer its command over the accumulated
// partial memory and push changed definition values along dependencies.
func (sv *solver) fire(n dug.NodeID) {
	if sv.g.IsPhi(n) {
		// A phi joins incoming values of its single location.
		sv.pushOuts(n, sv.res.Acc[n])
		return
	}
	pt := sv.prog.Point(ir.PointID(n))
	if !sv.res.Reached[pt.ID] {
		return // values wait until the point becomes reachable
	}
	acc := sv.res.Acc[n]
	var out mem.Mem
	ok := true
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		out = acc
		for _, p := range sv.pre.CalleesOf(pt.ID) {
			out = sv.s.BindFormals(pt, sv.prog.ProcByID(p), out)
		}
	} else {
		out, ok = sv.s.Transfer(pt, acc)
	}
	if !ok {
		return // refuted assume: no values, no reachability
	}
	sv.propagateReach(pt)
	sv.pushOuts(n, out)
}

// propagateReach marks the control successors of pt reachable, mirroring
// the dense solver's interprocedural edges.
func (sv *solver) propagateReach(pt *ir.Point) {
	mark := func(t ir.PointID) {
		if !sv.res.Reached[t] {
			sv.res.Reached[t] = true
			sv.wl.Add(int(t))
		}
	}
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := sv.pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				mark(s)
			}
			return
		}
		for _, p := range callees {
			mark(sv.prog.ProcByID(p).Entry)
		}
	case ir.Exit:
		for _, rs := range sv.pre.RetSites[pt.Proc] {
			mark(rs)
		}
	default:
		for _, s := range pt.Succs {
			mark(s)
		}
	}
}

// pushOuts compares the produced values on D̂(n) against the stored ones,
// widens at widening nodes, and propagates changed values to dependency
// successors.
func (sv *solver) pushOuts(n dug.NodeID, m mem.Mem) {
	isEntry := false
	if !sv.g.IsPhi(n) {
		_, isEntry = sv.prog.Point(ir.PointID(n)).Cmd.(ir.Entry)
	}
	base := sv.cbase[n]
	cur := sv.g.Out(n)
	for i, l := range sv.g.Defs[n] {
		nv := m.Get(l)
		old := sv.res.Out[n].Get(l)
		// Fused join: the steady-state case (nv ⊑ old) is a comparison with
		// no allocation, replacing the Join-then-Eq pair.
		joined, jch := old.JoinChanged(nv)
		if !jch {
			continue
		}
		cnt := sv.counts[base+int32(i)]
		sv.counts[base+int32(i)] = cnt + 1
		sv.res.Joins++
		forceWiden := int(cnt) > sv.opt.WidenThreshold ||
			(isEntry && int(cnt) > sv.opt.EntryWidenDelay)
		if sv.g.Widen[n] || forceWiden {
			wv, wch := old.WidenChanged(joined)
			if wch {
				sv.res.Widenings++
			}
			joined = wv
		}
		sv.res.Out[n] = sv.res.Out[n].Set(l, joined)
		for _, succ := range cur.Seek(l) {
			sacc := sv.res.Acc[succ]
			if joined.LessEq(sacc.Get(l)) {
				continue
			}
			sv.res.Acc[succ] = sacc.WeakSet(l, joined)
			sv.wl.Add(int(succ))
		}
	}
}

// ValueAt returns the sparse fixpoint value of location l at point pt: its
// produced value if l ∈ D̂(pt), otherwise the accumulated incoming value
// (l ∈ Û(pt)). The boolean reports whether the point tracks l at all.
func (r *Result) ValueAt(g *dug.Graph, pt ir.PointID, l ir.LocID) (v mem.Mem, tracked bool) {
	n := dug.NodeID(pt)
	for _, dl := range g.Defs[n] {
		if dl == l {
			return r.Out[n], true
		}
	}
	for _, ul := range g.Uses[n] {
		if ul == l {
			return r.Acc[n], true
		}
	}
	return mem.Bot, false
}

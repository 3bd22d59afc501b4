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
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/solver/driver"
)

// Options configures the sparse solver.
type Options struct {
	// Timeout aborts after the wall-clock budget (0 = none).
	Timeout time.Duration
	// MaxSteps aborts after this many node firings (0 = none).
	MaxSteps int
	// Narrow runs this many descending (narrowing) Jacobi sweeps over the
	// def-use graph after the ascending fixpoint, recovering precision lost
	// to widening. Each sweep recomputes every node's incoming values from
	// the current outputs and narrows the accumulated inputs towards them.
	Narrow int
	// Metrics, when non-nil, receives the solver's work counters (node
	// firings, value-changing joins, effective widenings) when the run
	// completes. Counting happens in Result fields on the hot path and
	// flushes once, so the instrumented counters equal the Result's.
	Metrics *metrics.Collector
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled at the same amortized stride as the Timeout check. On breach
	// the solver stops exactly like a timeout (TimedOut set, partial
	// result); the core boundary inspects the budget to tell them apart.
	// nil (the default) is free: the hot loop pays one pointer comparison
	// per stride window.
	Budget *rt.Budget
}

const (
	// widenThreshold forces widening at a location updated more than this
	// many times (safety valve).
	widenThreshold = 40
	// entryWidenDelay starts widening at procedure entry nodes after this
	// many changed pushes, cutting the spurious interprocedural feedback
	// cycles exactly as the dense solver does.
	entryWidenDelay = 4
	// pollStride is the number of firings between two Timeout/Budget polls.
	pollStride = 256
)

// Result is the sparse fixpoint.
type Result struct {
	// Acc[n] is the partial memory accumulated at node n over its in-edge
	// locations (the join of incoming dependency values); for a point these
	// cover the Û(n) entries any dependency reaches.
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
	// TimedOut reports an aborted run.
	TimedOut bool
}

// store is the interval half of a sparse solve: the value state and the
// transfer loop body (fire, pushOuts). The scheduling half is the
// driver.Driver d. The paper's F̂ keeps X(c) only on a set of (node,
// location) cells fixed before solving, so the state is flat — one value
// and one bound bit per cell — instead of a persistent memory per node that
// every changed push would path-copy:
//
//   - Out slot cbase[n]+i holds n's output on Defs[n][i] and indexes the
//     location's widening counter.
//   - Acc slot g.AccBase(n)+j holds n's accumulated input on
//     g.InLocs(n)[j]. Values reach a node only along its in-edges, and
//     those locations are not always in Û(n): linkage delivers values to
//     Entry and RetBind nodes on locations they redefine.
//
// A bound slot may hold bottom, just as mem.Set and mem.WeakSet bind
// explicit bottoms, so the memories materialized at the end (Result.Acc and
// Result.Out) have the domains per-node memories would have had.
type store struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	s    *sem.Sem
	opt  Options
	d    *driver.Driver

	out, acc       []val.Val
	outSet, accSet []bool
	// counts are the widening safety-valve counters, by Out slot: slot
	// cbase[n]+i counts the value-changing pushes of Defs[n][i]. Keying the
	// counters by location (not by firing) makes a location's widening
	// schedule a function of its own update history alone, which is what
	// lets a solve restricted to a subset of the locations reproduce the
	// full solve's widening decisions exactly (the per-checker restricted
	// runs rely on this).
	counts []int32
	cbase  []int32

	joins, widenings int

	// Scratch: memory entries under construction, and the new values of
	// the fired node's definitions.
	locs []ir.LocID
	vals []val.Val
	nv   []val.Val
}

// newStore returns the state of one solve.
func newStore(prog *ir.Program, pre *prean.Result, s *sem.Sem, g *dug.Graph, opt Options) *store {
	n := g.NumNodes()
	cbase := make([]int32, n+1)
	for i := 0; i < n; i++ {
		cbase[i+1] = cbase[i] + int32(len(g.Defs[i]))
	}
	st := &store{
		prog:   prog,
		pre:    pre,
		g:      g,
		s:      s,
		opt:    opt,
		out:    make([]val.Val, cbase[n]),
		outSet: make([]bool, cbase[n]),
		acc:    make([]val.Val, g.AccSlots()),
		accSet: make([]bool, g.AccSlots()),
		counts: make([]int32, cbase[n]),
		cbase:  cbase,
	}
	st.d = driver.New(prog, pre, g, rt.NewLimits(opt.MaxSteps, opt.Timeout, opt.Budget, pollStride), st.fire)
	return st
}

// Analyze runs the sparse analysis with the semantics s over the def-use
// graph g.
func Analyze(prog *ir.Program, pre *prean.Result, s *sem.Sem, g *dug.Graph, opt Options) *Result {
	st := newStore(prog, pre, s, g, opt)
	st.d.Global()
	return st.finish()
}

// finish materializes the per-node memories into the result, runs the
// descending phase over them, and flushes the work counters.
func (st *store) finish() *Result {
	n := st.g.NumNodes()
	d := st.d
	res := &Result{Reached: d.Reached, Steps: d.Steps, TimedOut: d.TimedOut}
	res.Acc = make([]mem.Mem, n)
	res.Out = make([]mem.Mem, n)
	for i := 0; i < n; i++ {
		res.Acc[i] = st.accMem(dug.NodeID(i))
		b := st.cbase[i]
		res.Out[i] = st.memOf(st.g.Defs[i], st.out[b:], st.outSet[b:])
	}
	res.Joins, res.Widenings = st.joins, st.widenings
	if st.opt.Narrow > 0 && !res.TimedOut {
		st.narrow(res, st.opt.Narrow)
	}
	flushMetrics(st.opt.Metrics, res)
	return res
}

// memOf builds the memory of the bound entries among locs, whose values
// and bound bits start at vals and set.
func (st *store) memOf(locs []ir.LocID, vals []val.Val, set []bool) mem.Mem {
	st.locs, st.vals = st.locs[:0], st.vals[:0]
	for j, l := range locs {
		if set[j] {
			st.locs = append(st.locs, l)
			st.vals = append(st.vals, vals[j])
		}
	}
	return mem.FromSorted(st.locs, st.vals)
}

// accMem returns node n's accumulated input as a memory.
func (st *store) accMem(n dug.NodeID) mem.Mem {
	b := st.g.AccBase(n)
	return st.memOf(st.g.InLocs(n), st.acc[b:], st.accSet[b:])
}

// accGet returns node n's accumulated input on l (bottom if unbound).
func (st *store) accGet(n dug.NodeID, l ir.LocID) val.Val {
	for j, il := range st.g.InLocs(n) {
		if il == l {
			return st.acc[st.g.AccBase(n)+int32(j)]
		}
	}
	return val.Bot
}

// flushMetrics pushes a completed run's work counters into the collector.
func flushMetrics(col *metrics.Collector, res *Result) {
	col.Add(metrics.CtrPops, int64(res.Steps))
	col.Add(metrics.CtrJoins, int64(res.Joins))
	col.Add(metrics.CtrWidenings, int64(res.Widenings))
}

// outOf recomputes a node's output memory from its current accumulated
// input in res (the f#_c(acc) of the descending phase). ok is false for
// refuted assumes and unreachable points.
func (st *store) outOf(res *Result, n dug.NodeID) (mem.Mem, bool) {
	if st.g.IsPhi(n) {
		return res.Acc[n], true
	}
	pt := st.prog.Point(ir.PointID(n))
	if !res.Reached[pt.ID] {
		return mem.Bot, false
	}
	return st.transfer(pt, res.Acc[n])
}

// transfer applies point pt's command to its input; a call binds the
// formals of every callee. ok is false for a refuted assume.
func (st *store) transfer(pt *ir.Point, in mem.Mem) (mem.Mem, bool) {
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		for _, p := range st.pre.CalleesOf(pt.ID) {
			in = st.s.BindFormals(pt, st.prog.ProcByID(p), in)
		}
		return in, true
	}
	return st.s.Transfer(pt, in)
}

// narrow runs descending Jacobi sweeps over the materialized memories:
// recompute every node's output from its (current) input, rebuild the
// inputs as the join of dependency predecessors' outputs, and narrow the
// stored inputs/outputs towards them. Sweeps stop early at stability.
func (st *store) narrow(res *Result, passes int) {
	n := st.g.NumNodes()
	for pass := 0; pass < passes; pass++ {
		if st.opt.Budget != nil && st.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
			res.TimedOut = true
			return
		}
		outs := make([]mem.Mem, n)
		okv := make([]bool, n)
		for i := 0; i < n; i++ {
			outs[i], okv[i] = st.outOf(res, dug.NodeID(i))
		}
		// Rebuild inputs from the recomputed outputs.
		newAcc := make([]mem.Mem, n)
		for i := 0; i < n; i++ {
			if !okv[i] {
				continue
			}
			cur := st.g.Out(dug.NodeID(i))
			for _, l := range st.g.Defs[dug.NodeID(i)] {
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
			na, nch := res.Acc[i].NarrowChanged(newAcc[i])
			if nch {
				stable = false
				res.Acc[i] = na
			}
		}
		// Refresh stored outputs from the narrowed inputs so Out keeps
		// agreeing with f#(Acc) on D̂. Detect first (allocation-free), then
		// rebuild only on change — the rebuild binds every def location,
		// explicit bottoms included, exactly as before.
		for i := 0; i < n; i++ {
			out, ok := st.outOf(res, dug.NodeID(i))
			if !ok {
				continue
			}
			changed := false
			for _, l := range st.g.Defs[dug.NodeID(i)] {
				if _, ch := res.Out[i].Get(l).NarrowChanged(out.Get(l)); ch {
					changed = true
					break
				}
			}
			if !changed {
				continue
			}
			refreshed := res.Out[i]
			for _, l := range st.g.Defs[dug.NodeID(i)] {
				refreshed = refreshed.Set(l, res.Out[i].Get(l).Narrow(out.Get(l)))
			}
			stable = false
			res.Out[i] = refreshed
		}
		if stable {
			return
		}
	}
}

// fire processes one node: transfer its command over the accumulated
// partial memory, mark its control successors reachable, and push changed
// definition values along dependencies. A phi joins the incoming values of
// its single location; a point fires only once reachable, and a refuted
// assume propagates neither values nor reachability.
func (st *store) fire(n dug.NodeID) {
	defs := st.g.Defs[n]
	nv := st.nv[:0]
	if st.g.IsPhi(n) {
		for _, l := range defs {
			nv = append(nv, st.accGet(n, l))
		}
	} else {
		pt := st.prog.Point(ir.PointID(n))
		if !st.d.Reached[pt.ID] {
			return // values wait until the point becomes reachable
		}
		out, ok := st.transfer(pt, st.accMem(n))
		if !ok {
			return
		}
		st.d.MarkSuccs(pt)
		for _, l := range defs {
			nv = append(nv, out.Get(l))
		}
	}
	st.nv = nv
	st.pushOuts(n, nv)
}

// pushOuts joins the produced values nv (one per Defs[n] entry) into n's
// Out slots, widens at widening nodes, and pushes the changed values to the
// dependency successors' Acc slots.
func (st *store) pushOuts(n dug.NodeID, nv []val.Val) {
	isEntry := false
	if !st.g.IsPhi(n) {
		_, isEntry = st.prog.Point(ir.PointID(n)).Cmd.(ir.Entry)
	}
	cur := st.g.Out(n)
	for i, l := range st.g.Defs[n] {
		slot := st.cbase[n] + int32(i)
		old := st.out[slot]
		// Fused join: the steady-state case (nv ⊑ old) is a comparison with
		// no allocation, replacing the Join-then-Eq pair.
		joined, jch := old.JoinChanged(nv[i])
		if !jch {
			continue
		}
		cnt := st.counts[slot]
		st.counts[slot] = cnt + 1
		st.joins++
		forceWiden := int(cnt) > widenThreshold ||
			(isEntry && int(cnt) > entryWidenDelay)
		if st.g.Widen[n] || forceWiden {
			wv, wch := old.WidenChanged(joined)
			if wch {
				st.widenings++
			}
			joined = wv
		}
		st.out[slot], st.outSet[slot] = joined, true
		succs, slots := cur.SeekSlots(l)
		for k, succ := range succs {
			st.push(succ, slots[k], joined)
		}
	}
}

// push joins v into Acc slot slot of node n (a weak update, binding an
// unbound slot to v) and schedules n if the slot grew.
func (st *store) push(n dug.NodeID, slot int32, v val.Val) {
	old := st.acc[slot]
	if v.LessEq(old) {
		return
	}
	if st.accSet[slot] {
		v = old.Join(v)
	}
	st.acc[slot], st.accSet[slot] = v, true
	st.d.Schedule(n)
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

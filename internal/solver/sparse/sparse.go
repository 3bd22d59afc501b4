// Package sparse implements the sparse fixpoint computation of Section 2.7:
// F̂_a(X) = λc. f#_c(⊔_{cd ↝(l) c} X(cd)|l) — abstract values propagate along
// the approximated data dependencies of the def-use graph instead of control
// flow, visiting only the entries in D̂(c)/Û(c) at each node.
//
// The loop is generic over the value domain of the map-shaped domain
// L# → V#: the interval analysis instantiates it with val.Val (Intervals)
// and the packed relational analysis with octagons over packs (Octagons,
// Octagon_sparse of Table 3). One global priority worklist schedules the
// whole graph.
//
// The solver additionally tracks control reachability (the production dense
// solver prunes CFG-unreachable code, so the sparse solver gates node
// transfers on the same reachability to preserve its precision): a point
// fires only once reachable, and refuted assumes propagate neither values
// nor reachability.
package sparse

import (
	"slices"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/worklist"
)

// Options configures the sparse solver.
type Options struct {
	// Narrow runs this many descending (narrowing) Jacobi sweeps over the
	// def-use graph after the ascending fixpoint, recovering precision lost
	// to widening (intervals only; the octagon instance has no descending
	// phase). Each sweep recomputes every node's incoming values from the
	// current outputs and narrows the accumulated inputs towards them.
	Narrow int
	// Metrics, when non-nil, receives the solver's work counters (node
	// firings, value-changing joins, effective widenings) when the run
	// completes. Counting happens in Result fields on the hot path and
	// flushes once, so the instrumented counters equal the Result's.
	Metrics *metrics.Collector
	// Budget is the cooperative cancellation token (internal/runtime),
	// checked every stride firings (the domain's checkpoint stride) and
	// before every narrowing sweep. A breach panics with *rt.Abort, so no
	// partial result is returned. nil (the default) is free: the hot loop
	// pays one pointer comparison per firing.
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
)

// Value is what the loop needs of every slot value: the change-reporting
// join a frame's weak update applies.
type Value[V any] interface {
	JoinChanged(V) (V, bool)
}

// Domain is one instance of the loop: the semantics applied to a frame, the
// value operations on slots, and the loop parameters that differ between
// domains. Intervals and Octagons are its implementations.
//
// The value operations take a slot's value and its bound bit. An unbound
// slot holds V's zero value: bottom for val.Val, nil for octagons.
type Domain[V Value[V]] interface {
	// transfer applies the command at point pt (not a call) to f; false
	// reports a refuted assume.
	transfer(pt *ir.Point, f *frame[V]) bool
	// bindFormals binds callee's formals at the call callPt in f.
	bindFormals(callPt *ir.Point, callee *ir.Proc, f *frame[V])
	// joinOut joins the produced value v into an Out slot holding old and
	// reports whether the slot grew.
	joinOut(old V, bound bool, v V) (V, bool)
	// widen widens the Out slot value old by joined, its grown value, and
	// reports an effective widening (one that extrapolated past the join).
	widen(old V, bound bool, joined V) (V, bool)
	// joinAcc joins the pushed value v into an Acc slot holding old and
	// reports whether the slot grew.
	joinAcc(old V, bound bool, v V) (V, bool)
	// params returns the number of firings between two Budget checkpoints
	// (it fixes the ordinals of the checkpoints fault injection counts) and
	// whether the widening counters are per node instead of per Out slot.
	params() (stride int, perNode bool)
	// narrow runs up to passes descending sweeps over the solved state.
	narrow(st *solver[V], passes int)
}

// Result is the sparse fixpoint. Its per-node memories are views over the
// solver's slot arrays: Acc, Out and Value read them, and a caller that
// needs a memory builds one from Acc or Out (mem.FromSorted,
// octsem.FromSorted).
type Result[V any] struct {
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

	g              *dug.Graph
	cbase          []int32
	out, acc       []V
	outSet, accSet []bool
}

// Acc returns node n's accumulated input (the join of incoming dependency
// values): the bound entries of its Acc slots, in location order. For a
// point these cover the Û(n) entries any dependency reaches.
func (r *Result[V]) Acc(n dug.NodeID) ([]ir.LocID, []V) {
	b := r.g.AccBase(n)
	return boundEntries(r.g.InLocs(n), r.acc[b:], r.accSet[b:])
}

// Out returns the partial memory node n produced over D̂(n): the bound
// entries of its Out slots, in location order. By Lemma 2 it agrees with
// the dense fixpoint on D̂(n).
func (r *Result[V]) Out(n dug.NodeID) ([]ir.LocID, []V) {
	b := r.cbase[n]
	return boundEntries(r.g.DefsOf(n), r.out[b:], r.outSet[b:])
}

// boundEntries returns the entries among locs whose bound bits (set,
// parallel to vals) are on.
func boundEntries[V any](locs []ir.LocID, vals []V, set []bool) ([]ir.LocID, []V) {
	ls, vs := make([]ir.LocID, 0, len(locs)), make([]V, 0, len(locs))
	for j, l := range locs {
		if set[j] {
			ls = append(ls, l)
			vs = append(vs, vals[j])
		}
	}
	return ls, vs
}

// Entries calls visit with every node's number of bound entries of its
// accumulated input and of its output: the sizes of the memories Acc and
// Out describe.
func (r *Result[V]) Entries(visit func(acc, out int)) {
	for n := range r.g.NumNodes() {
		acc, out := 0, 0
		b := r.g.AccBase(dug.NodeID(n))
		for _, ok := range r.accSet[b : b+int32(len(r.g.InLocs(dug.NodeID(n))))] {
			if ok {
				acc++
			}
		}
		for _, ok := range r.outSet[r.cbase[n]:r.cbase[n+1]] {
			if ok {
				out++
			}
		}
		visit(acc, out)
	}
}

// Value returns the sparse fixpoint value of l at point pt: its produced
// value if l ∈ D̂(pt), otherwise the accumulated incoming value (l ∈ Û(pt)).
// tracked reports whether the point tracks l at all. An unbound entry reads
// as V's zero value.
func (r *Result[V]) Value(pt ir.PointID, l ir.LocID) (v V, tracked bool) {
	n := dug.NodeID(pt)
	if i, ok := slices.BinarySearch(r.g.DefsOf(n), l); ok {
		return r.out[r.cbase[n]+int32(i)], true
	}
	if _, ok := slices.BinarySearch(r.g.UsesOf(n), l); !ok {
		return v, false
	}
	if j, ok := slices.BinarySearch(r.g.InLocs(n), l); ok {
		v = r.acc[r.g.AccBase(n)+int32(j)]
	}
	return v, true
}

// solver is one sparse solve: the global worklist, control reachability
// and the slot state. The paper's F̂ keeps X(c) only on a set of (node,
// location) cells fixed before solving, so the state is flat — one value
// and one bound bit per cell — instead of a persistent memory per node that
// every changed push would path-copy:
//
//   - Out slot cbase[n]+i holds n's output on DefsOf(n)[i].
//   - Acc slot g.AccBase(n)+j holds n's accumulated input on
//     g.InLocs(n)[j]. Values reach a node only along its in-edges, and
//     those locations are not always in Û(n): linkage delivers values to
//     Entry and RetBind nodes on locations they redefine.
//
// A transfer reads the fired node's Acc slots through a frame, which
// collects the new values of DefsOf(n); no memory is built.
type solver[V Value[V]] struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	dom  Domain[V]
	opt  Options
	res  *Result[V]
	wl   *worklist.Worklist
	mark func(ir.PointID) // markPoint as a func value, bound once so marking allocates nothing

	// counts are the widening safety-valve counters, by Out slot or, with
	// perNode, by node. Per slot, slot cbase[n]+i counts the
	// value-changing pushes of DefsOf(n)[i]: keying the counters by location
	// (not by firing) makes a location's widening schedule a function of
	// its own update history alone, which is what lets a solve restricted
	// to a subset of the locations reproduce the full solve's widening
	// decisions exactly (the per-checker interval runs rely on this). Per
	// node, a firing that changed any Out slot counts once.
	counts  []int32
	perNode bool
	stride  int // firings between two Budget checkpoints

	f frame[V]
}

// Analyze runs the sparse analysis of the domain dom over the def-use
// graph g.
func Analyze[V Value[V]](prog *ir.Program, pre *prean.Result, dom Domain[V], g *dug.Graph, opt Options) *Result[V] {
	n := g.NumNodes()
	stride, perNode := dom.params()
	cbase := make([]int32, n+1)
	for i := 0; i < n; i++ {
		cbase[i+1] = cbase[i] + int32(len(g.DefsOf(dug.NodeID(i))))
	}
	st := &solver[V]{
		prog:    prog,
		pre:     pre,
		g:       g,
		dom:     dom,
		opt:     opt,
		perNode: perNode,
		counts:  make([]int32, max(n, int(cbase[n]))),
		wl:      worklist.New(n, g.Prio),
		stride:  stride,
		res: &Result[V]{
			Reached: make([]bool, g.PointCount),
			g:       g,
			cbase:   cbase,
			out:     make([]V, cbase[n]),
			outSet:  make([]bool, cbase[n]),
			acc:     make([]V, g.AccSlots()),
			accSet:  make([]bool, g.AccSlots()),
		},
	}
	st.mark = st.markPoint
	st.run()
	res := st.res
	if opt.Narrow > 0 {
		dom.narrow(st, opt.Narrow)
	}
	opt.Metrics.Add(metrics.CtrPops, int64(res.Steps))
	opt.Metrics.Add(metrics.CtrJoins, int64(res.Joins))
	opt.Metrics.Add(metrics.CtrWidenings, int64(res.Widenings))
	return res
}

// run solves from main's entry until the worklist is empty.
func (st *solver[V]) run() {
	root := st.prog.ProcByID(st.prog.Main).Entry
	st.res.Reached[root] = true
	st.wl.Add(int(root))
	for {
		id, ok := st.wl.Take()
		if !ok {
			return
		}
		st.res.Steps++
		if st.opt.Budget != nil && st.res.Steps%st.stride == 0 {
			st.opt.Budget.Checkpoint(rt.PhaseFix)
		}
		st.fire(dug.NodeID(id))
	}
}

// markPoint records the reachability of t and schedules it the first time.
func (st *solver[V]) markPoint(t ir.PointID) {
	if !st.res.Reached[t] {
		st.res.Reached[t] = true
		st.wl.Add(int(t))
	}
}

// reachTargets visits the control-reachability targets of one point: callee
// entries for resolved calls, return sites for exits, plain CFG successors
// otherwise (including calls with no resolved callee). The dense solvers
// prune CFG-unreachable code, and the sparse solver keeps their precision
// by tracking the same reachability.
func reachTargets(prog *ir.Program, pre *prean.Result, pt *ir.Point, visit func(ir.PointID)) {
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

// fire processes one node: apply its command to its accumulated input,
// mark its control successors reachable, and push changed definition
// values along dependencies.
func (st *solver[V]) fire(n dug.NodeID) {
	if !st.eval(n) {
		return
	}
	if !st.g.IsPhi(n) {
		reachTargets(st.prog, st.pre, st.prog.Point(ir.PointID(n)), st.mark)
	}
	st.pushOuts(n, st.f.nv)
}

// eval loads node n's input into the frame and applies n's command, so
// that the frame's nv holds n's output on DefsOf(n); a call binds the formals
// of every callee, and a phi forwards its input. It reports false for a
// point not yet reachable (its values wait) and for a refuted assume, which
// propagates neither values nor reachability.
func (st *solver[V]) eval(n dug.NodeID) bool {
	if st.g.IsPhi(n) {
		st.load(n)
		return true
	}
	pt := st.prog.Point(ir.PointID(n))
	if !st.res.Reached[pt.ID] {
		return false
	}
	st.load(n)
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		for _, p := range st.pre.CalleesOf(pt.ID) {
			st.dom.bindFormals(pt, st.prog.ProcByID(p), &st.f)
		}
		return true
	}
	return st.dom.transfer(pt, &st.f)
}

// pushOuts joins the produced values nv (one per DefsOf(n) entry) into n's
// Out slots, widens at widening nodes (and, past the safety-valve
// thresholds, everywhere), and joins the changed values into the dependency
// successors' Acc slots, scheduling each successor whose input grew.
func (st *solver[V]) pushOuts(n dug.NodeID, nv []V) {
	res := st.res
	isEntry := false
	if !st.g.IsPhi(n) {
		_, isEntry = st.prog.Point(ir.PointID(n)).Cmd.(ir.Entry)
	}
	changed := false
	cur := st.g.Out(n)
	for i, l := range st.g.DefsOf(n) {
		slot := res.cbase[n] + int32(i)
		old, bound := res.out[slot], res.outSet[slot]
		joined, jch := st.dom.joinOut(old, bound, nv[i])
		if !jch {
			continue
		}
		var cnt int32
		if st.perNode {
			cnt = st.counts[n]
		} else {
			cnt = st.counts[slot]
			st.counts[slot] = cnt + 1
		}
		changed = true
		res.Joins++
		if st.g.Widen[n] || int(cnt) > widenThreshold || (isEntry && int(cnt) > entryWidenDelay) {
			wv, wch := st.dom.widen(old, bound, joined)
			if wch {
				res.Widenings++
			}
			joined = wv
		}
		res.out[slot], res.outSet[slot] = joined, true
		succs, slots := cur.SeekSlots(l)
		for k, succ := range succs {
			a := slots[k]
			if v, ch := st.dom.joinAcc(res.acc[a], res.accSet[a], joined); ch {
				res.acc[a], res.accSet[a] = v, true
				st.wl.Add(int(succ))
			}
		}
	}
	if st.perNode && changed {
		st.counts[n]++
	}
}

// frame is the memory a transfer reads and writes when node n fires. It
// answers every read exactly as the persistent memory of n's bound Acc
// slots would, reads after writes included:
//
//   - nv[i] (bound bit set[i]) holds the current value of DefsOf(n)[i]. It
//     starts as the Acc slot's value on that location, or unbound.
//   - Other locations read their Acc slot, or an unbound zero value when n
//     has no in-edge on them.
//   - A write outside DefsOf(n) is kept in extra, so that a later read in the
//     same transfer sees it; it never leaves the node, exactly as the
//     solver only ever took DefsOf(n) out of a transfer's result memory.
//
// Set and WeakSet update in place and return the frame, so the semantics'
// memory-threading code runs unchanged over it.
type frame[V Value[V]] struct {
	defs, in []ir.LocID
	acc      []V
	accSet   []bool

	nv  []V
	set []bool

	extra  []ir.LocID
	extraV []V
}

// load resets the frame to node n's input.
func (st *solver[V]) load(n dug.NodeID) {
	in := st.g.InLocs(n)
	b := st.g.AccBase(n)
	e := b + int32(len(in))
	st.f.load(st.g.DefsOf(n), in, st.res.acc[b:e], st.res.accSet[b:e])
}

// load resets f to the input whose bound entries are those of in (sorted)
// with a bound bit in accSet, valued by acc; defs (sorted) are the
// locations whose values the frame collects.
func (f *frame[V]) load(defs, in []ir.LocID, acc []V, accSet []bool) {
	f.defs, f.in, f.acc, f.accSet = defs, in, acc, accSet
	f.nv, f.set = f.nv[:0], f.set[:0]
	f.extra, f.extraV = f.extra[:0], f.extraV[:0]
	var zero V
	j := 0
	for _, l := range f.defs {
		for j < len(f.in) && f.in[j] < l {
			j++
		}
		if j < len(f.in) && f.in[j] == l {
			f.nv, f.set = append(f.nv, f.acc[j]), append(f.set, f.accSet[j])
		} else {
			f.nv, f.set = append(f.nv, zero), append(f.set, false)
		}
	}
}

// lookup returns the current value of l and whether it is bound.
func (f *frame[V]) lookup(l ir.LocID) (V, bool) {
	if i, ok := slices.BinarySearch(f.defs, l); ok {
		return f.nv[i], f.set[i]
	}
	for k := len(f.extra) - 1; k >= 0; k-- { // the latest write wins
		if f.extra[k] == l {
			return f.extraV[k], true
		}
	}
	if j, ok := slices.BinarySearch(f.in, l); ok {
		return f.acc[j], f.accSet[j]
	}
	var zero V
	return zero, false
}

// Get returns the value at l (the zero value if unbound).
func (f *frame[V]) Get(l ir.LocID) V {
	v, _ := f.lookup(l)
	return v
}

// Set binds l to v (strong update).
func (f *frame[V]) Set(l ir.LocID, v V) *frame[V] {
	if i, ok := slices.BinarySearch(f.defs, l); ok {
		f.nv[i], f.set[i] = v, true
		return f
	}
	f.extra, f.extraV = append(f.extra, l), append(f.extraV, v)
	return f
}

// WeakSet joins v into the value of l (weak update). An unbound l is bound
// to v; a bound l whose value already includes v keeps its value.
func (f *frame[V]) WeakSet(l ir.LocID, v V) *frame[V] {
	if old, ok := f.lookup(l); ok {
		j, ch := old.JoinChanged(v)
		if !ch {
			return f
		}
		v = j
	}
	return f.Set(l, v)
}

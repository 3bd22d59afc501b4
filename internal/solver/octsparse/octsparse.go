// Package octsparse implements the sparse fixpoint of the packed relational
// analysis (Octagon_sparse of Table 3): octagon pack values propagate along
// the pack-level def-use graph instead of control flow. The schedule — one
// global worklist — is driver.Driver's, shared with the interval solver.
package octsparse

import (
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/solver/driver"
)

// Options configures the sparse octagon solver (see the interval sparse
// solver for field meanings).
type Options struct {
	MaxSteps int
	// Metrics, when non-nil, receives the solver's work counters (pops,
	// value-changing joins, effective widenings) when Analyze returns.
	Metrics *metrics.Collector
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled every pollStride firings; a breach stops the solver like a
	// MaxSteps cut (TimedOut set). nil is free.
	Budget *rt.Budget
}

const (
	// widenThreshold and entryWidenDelay are the interval sparse solver's
	// widening safety valve and entry delay, counted per node here.
	widenThreshold  = 40
	entryWidenDelay = 4
	// pollStride is the number of firings between two Budget polls.
	pollStride = 64
)

// Result is the sparse relational fixpoint.
type Result struct {
	Acc     []octsem.OMem
	Out     []octsem.OMem
	Reached []bool
	Steps   int
	// Joins counts per-pack pushes that changed a node's stored output;
	// Widenings the effective widening applications among them (widened
	// state ≠ plain join).
	Joins     int
	Widenings int
	TimedOut  bool
}

// state is the octagon half of a sparse solve: the pack state and the
// transfer loop body (fire, pushOuts). The scheduling half is the
// driver.Driver d. The state is flat, as in the interval store (§24 of
// DESIGN.md): one octagon per (node, pack) cell the def-use graph fixes
// before solving, nil while unbound, instead of a persistent memory per
// node that every changed push would path-copy:
//
//   - Out slot cbase[n]+i holds n's output on Defs[n][i].
//   - Acc slot g.AccBase(n)+j holds n's accumulated input on
//     g.InLocs(n)[j], the packs that reach n along its in-edges.
//
// A point's input memory is built from its Acc slots once per firing, and
// Result.Acc and Result.Out are materialized once at the end.
type state struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	s    *octsem.Sem
	opt  Options
	d    *driver.Driver

	out, acc []*oct.Oct
	cbase    []int32
	// counts are the widening safety-valve counters, one per node: a
	// firing that changed any of the node's packs counts once. (The
	// interval solver counts per (node, location); switching would change
	// the octagon joins and widenings.)
	counts           []int32
	joins, widenings int
	rootEnt          ir.PointID

	// Scratch: state entries under construction, and the new values of
	// the fired node's definitions.
	packs []pack.ID
	octs  []*oct.Oct
	nv    []*oct.Oct
}

func newState(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *state {
	n := g.NumNodes()
	cbase := make([]int32, n+1)
	for i := 0; i < n; i++ {
		cbase[i+1] = cbase[i] + int32(len(g.Defs[i]))
	}
	st := &state{
		prog:    prog,
		pre:     pre,
		g:       g,
		s:       s,
		opt:     opt,
		out:     make([]*oct.Oct, cbase[n]),
		acc:     make([]*oct.Oct, g.AccSlots()),
		cbase:   cbase,
		counts:  make([]int32, n),
		rootEnt: prog.ProcByID(prog.Main).Entry,
	}
	st.d = driver.New(prog, pre, g, rt.NewLimits(opt.MaxSteps, opt.Budget, pollStride), st.fire)
	return st
}

// Analyze runs the sparse relational analysis over the pack-level def-use
// graph g with one global worklist.
func Analyze(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	st := newState(prog, pre, s, g, opt)
	st.d.Global()
	return st.finish()
}

// finish materializes the per-node states into the result and flushes the
// work counters.
func (st *state) finish() *Result {
	d := st.d
	n := st.g.NumNodes()
	res := &Result{
		Acc:       make([]octsem.OMem, n),
		Out:       make([]octsem.OMem, n),
		Reached:   d.Reached,
		Steps:     d.Steps,
		Joins:     st.joins,
		Widenings: st.widenings,
		TimedOut:  d.TimedOut,
	}
	for i := 0; i < n; i++ {
		res.Acc[i] = st.accMem(dug.NodeID(i))
		res.Out[i] = st.memOf(st.g.Defs[i], st.out[st.cbase[i]:])
	}
	col := st.opt.Metrics
	col.Add(metrics.CtrPops, int64(res.Steps))
	col.Add(metrics.CtrJoins, int64(res.Joins))
	col.Add(metrics.CtrWidenings, int64(res.Widenings))
	return res
}

// memOf builds the state of the bound entries among ps, whose octagons
// start at vals.
func (st *state) memOf(ps []pack.ID, vals []*oct.Oct) octsem.OMem {
	st.packs, st.octs = st.packs[:0], st.octs[:0]
	for j, p := range ps {
		if vals[j] != nil {
			st.packs = append(st.packs, p)
			st.octs = append(st.octs, vals[j])
		}
	}
	return octsem.FromSorted(st.packs, st.octs)
}

// accMem returns node n's accumulated input as a state.
func (st *state) accMem(n dug.NodeID) octsem.OMem {
	return st.memOf(st.g.InLocs(n), st.acc[st.g.AccBase(n):])
}

// accGet returns node n's accumulated input on p (nil if unbound).
func (st *state) accGet(n dug.NodeID, p pack.ID) *oct.Oct {
	for j, ip := range st.g.InLocs(n) {
		if ip == p {
			return st.acc[st.g.AccBase(n)+int32(j)]
		}
	}
	return nil
}

// fire processes one node: transfer its command over the accumulated pack
// state, mark its control successors reachable, and push the changed packs
// along dependencies. A phi forwards its accumulated packs; the root entry
// injects the arbitrary initial state; a point fires only once reachable,
// and a refuted assume propagates neither values nor reachability.
func (st *state) fire(n dug.NodeID) {
	defs := st.g.Defs[n]
	nv := st.nv[:0]
	if st.g.IsPhi(n) {
		for _, p := range defs {
			nv = append(nv, st.accGet(n, p))
		}
	} else {
		pt := st.prog.Point(ir.PointID(n))
		if !st.d.Reached[pt.ID] {
			return
		}
		var out octsem.OMem
		switch _, isCall := pt.Cmd.(ir.Call); {
		case pt.ID == st.rootEnt:
			out = st.s.TopState()
		case isCall:
			out = st.accMem(n)
			for _, p := range st.pre.CalleesOf(pt.ID) {
				out = st.s.BindFormals(pt, st.prog.ProcByID(p), out)
			}
		default:
			var ok bool
			if out, ok = st.s.Transfer(pt, st.accMem(n)); !ok {
				return
			}
		}
		st.d.MarkSuccs(pt)
		for _, p := range defs {
			nv = append(nv, out.Get(p))
		}
	}
	st.nv = nv
	st.pushOuts(n, nv)
}

// pushOuts joins the produced packs nv (one per Defs[n] entry, nil when
// not produced) into n's Out slots, widens at widening nodes (and, past
// the safety-valve thresholds, everywhere), and joins the changed packs
// into the dependency successors' Acc slots, scheduling each successor
// whose state grew.
func (st *state) pushOuts(n dug.NodeID, nv []*oct.Oct) {
	forceWiden := int(st.counts[n]) > widenThreshold
	if !forceWiden && !st.g.IsPhi(n) && int(st.counts[n]) > entryWidenDelay {
		if _, isEntry := st.prog.Point(ir.PointID(n)).Cmd.(ir.Entry); isEntry {
			forceWiden = true
		}
	}
	changed := false
	cur := st.g.Out(n)
	for i, p := range st.g.Defs[n] {
		joined := nv[i]
		if joined == nil {
			continue
		}
		slot := st.cbase[n] + int32(i)
		if old := st.out[slot]; old != nil {
			// Fused join: the unchanged case previously paid a separate Eq,
			// which re-closed the stored (possibly widened, unclosed) octagon
			// on every push.
			var jch bool
			joined, jch = old.JoinChanged(joined)
			if !jch {
				continue
			}
			if st.g.Widen[n] || forceWiden {
				wv := old.Widen(joined)
				if !wv.Eq(joined) {
					st.widenings++
				}
				joined = wv
			}
		} else if joined.IsBottom() {
			continue
		}
		changed = true
		st.joins++
		st.out[slot] = joined
		succs, slots := cur.SeekSlots(p)
		for k, succ := range succs {
			// Change detection and the join are one pass: nothing is built
			// when the pushed pack is already included.
			next := joined
			if prev := st.acc[slots[k]]; prev != nil {
				var ch bool
				if next, ch = prev.JoinChanged(joined); !ch {
					continue
				}
			}
			st.acc[slots[k]] = next
			st.d.Schedule(succ)
		}
	}
	if changed {
		st.counts[n]++
	}
}

// ValueAt returns the fixpoint pack state tracked at point pt for pack p.
func (r *Result) ValueAt(g *dug.Graph, pt ir.PointID, p pack.ID) (octsem.OMem, bool) {
	n := dug.NodeID(pt)
	for _, dl := range g.Defs[n] {
		if dl == p {
			return r.Out[n], true
		}
	}
	for _, ul := range g.Uses[n] {
		if ul == p {
			return r.Acc[n], true
		}
	}
	return octsem.OBot, false
}

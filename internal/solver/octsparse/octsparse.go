// Package octsparse implements the sparse fixpoint of the packed relational
// analysis (Octagon_sparse of Table 3): octagon pack values propagate along
// the pack-level def-use graph instead of control flow. The schedule — one
// global worklist — is driver.Driver's, shared with the interval solver.
package octsparse

import (
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
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

// state is the octagon half of a sparse solve: the per-node pack memories
// and the transfer loop body (fire, pushOuts). The scheduling half is the
// driver.Driver d.
type state struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	s    *octsem.Sem
	opt  Options
	d    *driver.Driver

	acc, out []octsem.OMem
	// counts are the widening safety-valve counters, one per node: a
	// firing that changed any of the node's packs counts once. (The
	// interval solver counts per (node, location); switching would change
	// the octagon joins and widenings.)
	counts           []int32
	joins, widenings int
	rootEnt          ir.PointID
}

func newState(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *state {
	n := g.NumNodes()
	st := &state{
		prog:    prog,
		pre:     pre,
		g:       g,
		s:       s,
		opt:     opt,
		acc:     make([]octsem.OMem, n),
		out:     make([]octsem.OMem, n),
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

// finish builds the result and flushes the work counters.
func (st *state) finish() *Result {
	d := st.d
	res := &Result{
		Acc:       st.acc,
		Out:       st.out,
		Reached:   d.Reached,
		Steps:     d.Steps,
		Joins:     st.joins,
		Widenings: st.widenings,
		TimedOut:  d.TimedOut,
	}
	col := st.opt.Metrics
	col.Add(metrics.CtrPops, int64(res.Steps))
	col.Add(metrics.CtrJoins, int64(res.Joins))
	col.Add(metrics.CtrWidenings, int64(res.Widenings))
	return res
}

// fire processes one node: transfer its command over the accumulated pack
// state, mark its control successors reachable, and push the changed packs
// along dependencies. A phi forwards its accumulated state; the root entry
// injects the arbitrary initial state; a point fires only once reachable,
// and a refuted assume propagates neither values nor reachability.
func (st *state) fire(n dug.NodeID) {
	if st.g.IsPhi(n) {
		st.pushOuts(n, st.acc[n])
		return
	}
	pt := st.prog.Point(ir.PointID(n))
	if !st.d.Reached[pt.ID] {
		return
	}
	out := st.acc[n]
	switch _, isCall := pt.Cmd.(ir.Call); {
	case pt.ID == st.rootEnt:
		out = st.s.TopState()
	case isCall:
		for _, p := range st.pre.CalleesOf(pt.ID) {
			out = st.s.BindFormals(pt, st.prog.ProcByID(p), out)
		}
	default:
		var ok bool
		if out, ok = st.s.Transfer(pt, out); !ok {
			return
		}
	}
	st.d.MarkSuccs(pt)
	st.pushOuts(n, out)
}

// pushOuts joins the produced packs of m into n's output, widens at
// widening nodes (and, past the safety-valve thresholds, everywhere), and
// joins the changed packs into the dependency successors' accumulated
// states, scheduling each successor whose state grew.
func (st *state) pushOuts(n dug.NodeID, m octsem.OMem) {
	forceWiden := int(st.counts[n]) > widenThreshold
	if !forceWiden && !st.g.IsPhi(n) && int(st.counts[n]) > entryWidenDelay {
		if _, isEntry := st.prog.Point(ir.PointID(n)).Cmd.(ir.Entry); isEntry {
			forceWiden = true
		}
	}
	changed := false
	cur := st.g.Out(n)
	for _, l := range st.g.Defs[n] {
		nv := m.Get(l)
		if nv == nil {
			continue
		}
		old := st.out[n].Get(l)
		joined := nv
		if old != nil {
			// Fused join: the unchanged case previously paid a separate Eq,
			// which re-closed the stored (possibly widened, unclosed) octagon
			// on every push.
			var jch bool
			joined, jch = old.JoinChanged(nv)
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
		} else if nv.IsBottom() {
			continue
		}
		changed = true
		st.joins++
		st.out[n] = st.out[n].Set(l, joined)
		for _, succ := range cur.Seek(l) {
			// Change detection and the join are one pass: nothing is built
			// when the pushed pack is already included.
			sacc := st.acc[succ]
			next := joined
			if prev := sacc.Get(l); prev != nil {
				var ch bool
				if next, ch = prev.JoinChanged(joined); !ch {
					continue
				}
			}
			st.acc[succ] = sacc.Set(l, next)
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

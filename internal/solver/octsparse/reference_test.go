package octsparse

// The reference solver: the global-worklist octagon solver as it was before
// the shared driver.Driver, kept verbatim (renamed) so
// TestOctDriverMatchesReference and FuzzOctDriver can pin the driver to it.

import (
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/worklist"
)

type refSolver struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	s    *octsem.Sem
	opt  Options
	res  *Result
	wl   *worklist.Worklist

	counts  []int32
	rootEnt ir.PointID
}

// refAnalyze runs the sparse relational analysis over the pack-level def-use
// graph g.
func refAnalyze(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	n := g.NumNodes()
	sv := &refSolver{
		prog: prog,
		pre:  pre,
		g:    g,
		s:    s,
		opt:  opt,
		res: &Result{
			Acc:     make([]octsem.OMem, n),
			Out:     make([]octsem.OMem, n),
			Reached: make([]bool, g.PointCount),
		},
		counts: make([]int32, n),
		wl:     worklist.New(n, g.Prio),
	}
	root := prog.ProcByID(prog.Main)
	sv.rootEnt = root.Entry
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
		if sv.opt.Budget != nil && sv.res.Steps%64 == 0 {
			if sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
				sv.res.TimedOut = true
				break
			}
		}
		sv.fire(dug.NodeID(id))
	}
	opt.Metrics.Add(metrics.CtrPops, int64(sv.res.Steps))
	opt.Metrics.Add(metrics.CtrJoins, int64(sv.res.Joins))
	opt.Metrics.Add(metrics.CtrWidenings, int64(sv.res.Widenings))
	return sv.res
}

func (sv *refSolver) fire(n dug.NodeID) {
	if sv.g.IsPhi(n) {
		sv.pushOuts(n, sv.res.Acc[n])
		return
	}
	pt := sv.prog.Point(ir.PointID(n))
	if !sv.res.Reached[pt.ID] {
		return
	}
	acc := sv.res.Acc[n]
	if pt.ID == sv.rootEnt {
		// The root entry injects the arbitrary initial state.
		sv.propagateReach(pt)
		sv.pushOuts(n, sv.s.TopState())
		return
	}
	var out octsem.OMem
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
		return
	}
	sv.propagateReach(pt)
	sv.pushOuts(n, out)
}

func (sv *refSolver) propagateReach(pt *ir.Point) {
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

func (sv *refSolver) pushOuts(n dug.NodeID, m octsem.OMem) {
	forceWiden := int(sv.counts[n]) > widenThreshold
	if !forceWiden && !sv.g.IsPhi(n) && int(sv.counts[n]) > entryWidenDelay {
		if _, isEntry := sv.prog.Point(ir.PointID(n)).Cmd.(ir.Entry); isEntry {
			forceWiden = true
		}
	}
	changed := false
	cur := sv.g.Out(n)
	for _, l := range sv.g.Defs[n] {
		nv := m.Get(l)
		if nv == nil {
			continue
		}
		old := sv.res.Out[n].Get(l)
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
			if sv.g.Widen[n] || forceWiden {
				wv := old.Widen(joined)
				if !wv.Eq(joined) {
					sv.res.Widenings++
				}
				joined = wv
			}
		} else if nv.IsBottom() {
			continue
		}
		changed = true
		sv.res.Joins++
		sv.res.Out[n] = sv.res.Out[n].Set(l, joined)
		for _, succ := range cur.Seek(l) {
			sacc := sv.res.Acc[succ]
			next, ok := refDeliver(sacc.Get(l), joined)
			if !ok {
				continue
			}
			sv.res.Acc[succ] = sacc.Set(l, next)
			sv.wl.Add(int(succ))
		}
	}
	if changed {
		sv.counts[n]++
	}
}

// refDeliver joins a pushed pack value v into a successor's accumulated value
// old (nil when none has arrived) and reports whether the accumulation
// changed. Change detection and the join are one pass: nothing is built
// when v is already included.
func refDeliver(old, v *oct.Oct) (*oct.Oct, bool) {
	if old == nil {
		return v, true
	}
	return old.JoinChanged(v)
}

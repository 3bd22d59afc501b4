// Package octsparse implements the sparse fixpoint of the packed relational
// analysis (Octagon_sparse of Table 3): octagon pack values propagate along
// the pack-level def-use graph instead of control flow.
package octsparse

import (
	"time"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/worklist"
)

// Options configures the sparse octagon solver (see the interval sparse
// solver for field meanings).
type Options struct {
	Timeout         time.Duration
	MaxSteps        int
	WidenThreshold  int
	EntryWidenDelay int
	// Metrics, when non-nil, receives the solver's work counters (pops,
	// value-changing joins, effective widenings) when Analyze returns.
	Metrics *metrics.Collector
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled at the Timeout stride; a breach stops the solver like a
	// timeout (TimedOut set). nil is free.
	Budget *rt.Budget
}

const (
	defaultWidenThreshold  = 40
	defaultEntryWidenDelay = 4
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
	// Rounds counts the component solver's waves (AnalyzeComponents only;
	// the global-worklist solver has no rounds and leaves it zero).
	Rounds   int
	TimedOut bool
}

type solver struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	s    *octsem.Sem
	opt  Options
	res  *Result
	wl   *worklist.Worklist

	counts   []int32
	rootEnt  ir.PointID
	deadline time.Time
}

// Analyze runs the sparse relational analysis over the pack-level def-use
// graph g.
func Analyze(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
	n := g.NumNodes()
	sv := &solver{
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
	if opt.Timeout > 0 {
		sv.deadline = time.Now().Add(opt.Timeout)
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
		if (sv.opt.Timeout > 0 || sv.opt.Budget != nil) && sv.res.Steps%64 == 0 {
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
	opt.Metrics.Add(metrics.CtrPops, int64(sv.res.Steps))
	opt.Metrics.Add(metrics.CtrJoins, int64(sv.res.Joins))
	opt.Metrics.Add(metrics.CtrWidenings, int64(sv.res.Widenings))
	return sv.res
}

func (sv *solver) fire(n dug.NodeID) {
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

func (sv *solver) pushOuts(n dug.NodeID, m octsem.OMem) {
	forceWiden := int(sv.counts[n]) > sv.opt.WidenThreshold
	if !forceWiden && !sv.g.IsPhi(n) && int(sv.counts[n]) > sv.opt.EntryWidenDelay {
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
			next, ok := deliver(sacc.Get(l), joined)
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

// deliver joins a pushed pack value v into a successor's accumulated value
// old (nil when none has arrived) and reports whether the accumulation
// changed. Change detection and the join are one pass: nothing is built
// when v is already included.
func deliver(old, v *oct.Oct) (*oct.Oct, bool) {
	if old == nil {
		return v, true
	}
	return old.JoinChanged(v)
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

// Component sparse octagon solver: the pack-level def-use graph partitions
// into SCC components exactly like the interval graph (dug.Partition), so the
// octagon fixpoint runs in the same canonical wave schedule
// (internal/solver/compsched). The kernel mirrors the global-worklist
// solver's transfer loop per component — per-node widening counters, nil-pack
// handling, explicit Acc joins, the root entry's TopState injection — while
// reachability marks split into immediate (scheduling-DAG successors) and
// deferred (backward edges, applied at the end of the wave with the exact
// non-assume transitive closure: octsem.Transfer fails only on refuted
// assumes, the same property the interval closure relies on).
package octsparse

import (
	"sort"
	"time"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/octsem"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/solver/compsched"
	"sparrow/internal/worklist"
)

// AnalyzeComponents runs the sparse relational analysis over the def-use
// graph's component partition in the sequential wave schedule. Result.Rounds
// counts the waves.
func AnalyzeComponents(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
	n := g.NumNodes()
	p := g.Partition()
	cs := &csolver{
		prog: prog,
		pre:  pre,
		g:    g,
		p:    p,
		s:    s,
		wl:   worklist.New(n, g.Prio),
		opt:  opt,
		res: &Result{
			Acc:     make([]octsem.OMem, n),
			Out:     make([]octsem.OMem, n),
			Reached: make([]bool, g.PointCount),
		},
		counts: make([]int32, n),
		seeds:  make([][]int32, p.NumComps()),
		sched:  compsched.BuildSched(prog, pre, p),
	}
	if opt.Timeout > 0 {
		cs.deadline = time.Now().Add(opt.Timeout)
	}

	root := prog.ProcByID(prog.Main)
	cs.rootEnt = root.Entry
	cs.applyMarks([]ir.PointID{root.Entry})
	hasWork := func(c int32) bool { return len(cs.seeds[c]) > 0 }
	for cs.anySeeds() && !cs.timedOut {
		cs.res.Rounds++
		cs.sched.Wave(hasWork, cs.runComponent)
		sort.Slice(cs.deferred, func(i, j int) bool { return cs.deferred[i] < cs.deferred[j] })
		cs.applyMarks(cs.deferred)
		cs.deferred = cs.deferred[:0]
	}

	cs.res.Steps = cs.steps
	cs.res.TimedOut = cs.timedOut
	opt.Metrics.Add(metrics.CtrPops, int64(cs.res.Steps))
	opt.Metrics.Add(metrics.CtrJoins, int64(cs.res.Joins))
	opt.Metrics.Add(metrics.CtrWidenings, int64(cs.res.Widenings))
	opt.Metrics.Add(metrics.CtrRounds, int64(cs.res.Rounds))
	return cs.res
}

// csolver is the state of one component solve.
type csolver struct {
	prog  *ir.Program
	pre   *prean.Result
	g     *dug.Graph
	p     *dug.Partition
	s     *octsem.Sem
	wl    *worklist.Worklist
	opt   Options
	res   *Result
	sched *compsched.Sched

	// counts mirrors solver.counts: one widening counter per node.
	counts  []int32
	rootEnt ir.PointID

	// seeds[c] is component c's bucket of nodes to enqueue on its next run;
	// deferred buffers the backward reach marks of the current wave.
	seeds    [][]int32
	deferred []ir.PointID

	comp     int32 // the running component
	steps    int
	timedOut bool
	deadline time.Time
}

// applyMarks seeds the given points and closes reachability transitively
// through non-assume points (octsem.Transfer fails only on refuted assumes,
// so the closure is exact — the same argument as the interval solver's).
func (cs *csolver) applyMarks(queue []ir.PointID) {
	q := append([]ir.PointID(nil), queue...)
	push := func(t ir.PointID) {
		if !cs.res.Reached[t] {
			q = append(q, t)
		}
	}
	for i := 0; i < len(q); i++ {
		t := q[i]
		if cs.res.Reached[t] {
			continue
		}
		cs.res.Reached[t] = true
		c := cs.p.Comp[t]
		cs.seeds[c] = append(cs.seeds[c], int32(t))
		pt := cs.prog.Point(t)
		if _, isAssume := pt.Cmd.(ir.Assume); !isAssume {
			compsched.ReachTargets(cs.prog, cs.pre, pt, push)
		}
	}
}

func (cs *csolver) anySeeds() bool {
	for _, s := range cs.seeds {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// runComponent mirrors the interval solver's runComponent with the octagon
// budget stride (64, matching the global-worklist octagon solver).
func (cs *csolver) runComponent(c int32) {
	cs.comp = c
	seeds := cs.seeds[c]
	cs.seeds[c] = nil
	if len(seeds) == 0 || cs.timedOut {
		return
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		cs.wl.Add(int(s))
	}
	local := 0
	for {
		id, ok := cs.wl.Take()
		if !ok {
			break
		}
		if cs.timedOut {
			continue // drain so the worklist is clean for the next component
		}
		local++
		cs.steps++
		if cs.opt.MaxSteps > 0 && cs.steps > cs.opt.MaxSteps {
			cs.timedOut = true
			continue
		}
		if (cs.opt.Timeout > 0 || cs.opt.Budget != nil) && local%64 == 0 {
			if cs.opt.Timeout > 0 && time.Now().After(cs.deadline) {
				cs.timedOut = true
				continue
			}
			if cs.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
				cs.timedOut = true
				continue
			}
		}
		cs.fire(dug.NodeID(id))
	}
}

// fire mirrors the global-worklist solver's fire with component-aware
// propagation.
func (cs *csolver) fire(n dug.NodeID) {
	if cs.g.IsPhi(n) {
		cs.pushOuts(n, cs.res.Acc[n])
		return
	}
	pt := cs.prog.Point(ir.PointID(n))
	if !cs.res.Reached[pt.ID] {
		return
	}
	acc := cs.res.Acc[n]
	if pt.ID == cs.rootEnt {
		// The root entry injects the arbitrary initial state.
		compsched.ReachTargets(cs.prog, cs.pre, pt, cs.mark)
		cs.pushOuts(n, cs.s.TopState())
		return
	}
	var out octsem.OMem
	ok := true
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		out = acc
		for _, p := range cs.pre.CalleesOf(pt.ID) {
			out = cs.s.BindFormals(pt, cs.prog.ProcByID(p), out)
		}
	} else {
		out, ok = cs.s.Transfer(pt, acc)
	}
	if !ok {
		return
	}
	compsched.ReachTargets(cs.prog, cs.pre, pt, cs.mark)
	cs.pushOuts(n, out)
}

// mark mirrors the interval solver's mark: local worklist inside the running
// component, a seed in a scheduling successor, deferred otherwise.
func (cs *csolver) mark(t ir.PointID) {
	ct := cs.p.Comp[t]
	switch {
	case ct == cs.comp:
		if !cs.res.Reached[t] {
			cs.res.Reached[t] = true
			cs.wl.Add(int(t))
		}
	case cs.sched.HasSucc(cs.comp, ct):
		if !cs.res.Reached[t] {
			cs.res.Reached[t] = true
			cs.seeds[ct] = append(cs.seeds[ct], int32(t))
		}
	default:
		cs.deferred = append(cs.deferred, t)
	}
}

// pushOuts mirrors the global-worklist solver's pushOuts (per-node widening
// counter, nil-pack skips, explicit Acc joins); a push that leaves the
// component seeds its target node in the target's component.
func (cs *csolver) pushOuts(n dug.NodeID, m octsem.OMem) {
	forceWiden := int(cs.counts[n]) > cs.opt.WidenThreshold
	if !forceWiden && !cs.g.IsPhi(n) && int(cs.counts[n]) > cs.opt.EntryWidenDelay {
		if _, isEntry := cs.prog.Point(ir.PointID(n)).Cmd.(ir.Entry); isEntry {
			forceWiden = true
		}
	}
	changed := false
	cur := cs.g.Out(n)
	for _, l := range cs.g.Defs[n] {
		nv := m.Get(l)
		if nv == nil {
			continue
		}
		old := cs.res.Out[n].Get(l)
		joined := nv
		if old != nil {
			var jch bool
			joined, jch = old.JoinChanged(nv)
			if !jch {
				continue
			}
			if cs.g.Widen[n] || forceWiden {
				wv := old.Widen(joined)
				if !wv.Eq(joined) {
					cs.res.Widenings++
				}
				joined = wv
			}
		} else if nv.IsBottom() {
			continue
		}
		changed = true
		cs.res.Joins++
		cs.res.Out[n] = cs.res.Out[n].Set(l, joined)
		for _, succ := range cur.Seek(l) {
			sacc := cs.res.Acc[succ]
			next, ok := deliver(sacc.Get(l), joined)
			if !ok {
				continue
			}
			cs.res.Acc[succ] = sacc.Set(l, next)
			if c := cs.p.Comp[succ]; c == cs.comp {
				cs.wl.Add(int(succ))
			} else {
				cs.seeds[c] = append(cs.seeds[c], int32(succ))
			}
		}
	}
	if changed {
		cs.counts[n]++
	}
}

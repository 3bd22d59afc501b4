// Component sparse solver: the def-use graph's SCC condensation is a DAG of
// components (dug.Partition), and values flow only along dependency edges, so
// a component's fixpoint depends on nothing but its condensation
// predecessors. The solver runs the existing priority-worklist transfer loop
// one component at a time, in the canonical wave schedule of
// internal/solver/compsched: each wave runs the components with work in
// ascending (topological) order, so every component starts only after every
// run that can write into it this wave has finished.
//
// Control reachability is the one signal that does not follow dependency
// edges (call→entry, exit→retsite, and plain CFG successors). Marks that land
// in a scheduling successor seed it immediately, while backward marks — loop
// back edges and recursive returns — are buffered and applied at the end of
// the wave, where they are additionally closed transitively through
// non-assume points (only ir.Assume can block reachability, so the closure
// is exact). Waves repeat until no deferred marks remain (reachability is
// monotone over a finite point set, so the waves terminate). The incremental
// driver (incr.go) replays exactly this schedule.
package sparse

import (
	"sort"
	"time"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/solver/compsched"
	"sparrow/internal/worklist"
)

// AnalyzeComponents runs the sparse analysis over the def-use graph's
// component partition in the sequential wave schedule. Result.Rounds counts
// the waves.
func AnalyzeComponents(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options) *Result {
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
		s:    &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle, EntryMarks: opt.EntryMarks},
		wl:   worklist.New(n, g.Prio),
		opt:  opt,
		res: &Result{
			Acc:     make([]mem.Mem, n),
			Out:     make([]mem.Mem, n),
			Reached: make([]bool, g.PointCount),
		},
		cbase: defOffsets(g),
		seeds: make([][]int32, p.NumComps()),
		sched: compsched.BuildSched(prog, pre, p),
	}
	cs.counts = make([]int32, cs.cbase[n])
	if opt.Timeout > 0 {
		cs.deadline = time.Now().Add(opt.Timeout)
	}

	cs.applyMarks([]ir.PointID{prog.ProcByID(prog.Main).Entry})
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
	if opt.Narrow > 0 && !cs.res.TimedOut {
		// The descending phase is a whole-graph Jacobi sweep; reuse the
		// global-worklist implementation over the converged state.
		sv := &solver{prog: prog, pre: pre, g: g, s: cs.s, opt: opt, res: cs.res}
		sv.narrow(opt.Narrow)
	}
	flushMetrics(opt.Metrics, cs.res)
	return cs.res
}

// csolver is the state of one component solve.
type csolver struct {
	prog  *ir.Program
	pre   *prean.Result
	g     *dug.Graph
	p     *dug.Partition
	s     *sem.Sem
	wl    *worklist.Worklist
	opt   Options
	res   *Result
	sched *compsched.Sched

	// counts/cbase mirror solver.counts: one widening counter per (node,
	// def location), slot cbase[n]+i for Defs[n][i].
	counts []int32
	cbase  []int32

	// seeds[c] is component c's bucket of nodes to enqueue on its next run;
	// deferred buffers the backward reach marks of the current wave.
	seeds    [][]int32
	deferred []ir.PointID

	comp     int32 // the running component
	steps    int
	timedOut bool
	deadline time.Time
}

// applyMarks sets the given points reachable, seeds their components, and
// transitively closes reachability through non-assume points: every command
// except Assume propagates control reachability unconditionally once it
// fires (sem.Transfer fails only on refuted assumes), so marking their
// control successors eagerly reaches the same final set the firing would —
// without spending a wave per control step. Assumes stop the closure: their
// propagation waits for the value fixpoint to decide refutation. The closure
// order is deterministic given a deterministically-ordered queue.
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

// runComponent runs the priority-worklist transfer loop over one component's
// node slice. Seeds are sorted before enqueueing so the local schedule is
// canonical; the worklist drains completely, leaving it ready for reuse.
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
		if (cs.opt.Timeout > 0 || cs.opt.Budget != nil) && local%256 == 0 {
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

// fire mirrors solver.fire with component-aware propagation.
func (cs *csolver) fire(n dug.NodeID) {
	if cs.g.IsPhi(n) {
		cs.pushOuts(n, cs.res.Acc[n])
		return
	}
	pt := cs.prog.Point(ir.PointID(n))
	if !cs.res.Reached[pt.ID] {
		return // values wait until the point becomes reachable
	}
	acc := cs.res.Acc[n]
	var out mem.Mem
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
		return // refuted assume: no values, no reachability
	}
	compsched.ReachTargets(cs.prog, cs.pre, pt, cs.mark)
	cs.pushOuts(n, out)
}

// mark records reachability of t. Inside the running component it feeds the
// local worklist; in a scheduling-DAG successor (which has not run yet this
// wave) it seeds that component; anywhere else — a backward reach edge — it
// is deferred to the end of the wave.
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

// pushOuts mirrors solver.pushOuts. Dependency edges that leave the
// component are condensation edges by construction, so the target is a
// direct DAG successor that has not run yet this wave: the join is staged
// into its Acc and the target node seeded.
func (cs *csolver) pushOuts(n dug.NodeID, m mem.Mem) {
	isEntry := false
	if !cs.g.IsPhi(n) {
		_, isEntry = cs.prog.Point(ir.PointID(n)).Cmd.(ir.Entry)
	}
	base := cs.cbase[n]
	cur := cs.g.Out(n)
	for i, l := range cs.g.Defs[n] {
		nv := m.Get(l)
		old := cs.res.Out[n].Get(l)
		// Fused join, mirroring the global-worklist solver bit for bit.
		joined, jch := old.JoinChanged(nv)
		if !jch {
			continue
		}
		cnt := cs.counts[base+int32(i)]
		cs.counts[base+int32(i)] = cnt + 1
		cs.res.Joins++
		forceWiden := int(cnt) > cs.opt.WidenThreshold ||
			(isEntry && int(cnt) > cs.opt.EntryWidenDelay)
		if cs.g.Widen[n] || forceWiden {
			wv, wch := old.WidenChanged(joined)
			if wch {
				cs.res.Widenings++
			}
			joined = wv
		}
		cs.res.Out[n] = cs.res.Out[n].Set(l, joined)
		for _, succ := range cur.Seek(l) {
			sacc := cs.res.Acc[succ]
			if joined.LessEq(sacc.Get(l)) {
				continue
			}
			cs.res.Acc[succ] = sacc.WeakSet(l, joined)
			if c := cs.p.Comp[succ]; c == cs.comp {
				cs.wl.Add(int(succ))
			} else {
				cs.seeds[c] = append(cs.seeds[c], int32(succ))
			}
		}
	}
}

package octsparse

// The reference solvers: the global-worklist and component octagon solvers
// as they were before the shared compsched.Driver, kept verbatim (renamed)
// so TestOctDriverMatchesReference and FuzzOctDriver can pin the driver to
// them.

import (
	"sort"
	"time"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/solver/compsched"
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

	counts   []int32
	rootEnt  ir.PointID
	deadline time.Time
}

// refAnalyze runs the sparse relational analysis over the pack-level def-use
// graph g.
func refAnalyze(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
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

// refAnalyzeComponents runs the sparse relational analysis over the def-use
// graph's component partition in the sequential wave schedule. Result.Rounds
// counts the waves.
func refAnalyzeComponents(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
	n := g.NumNodes()
	p := g.Partition()
	cs := &refCSolver{
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

// refCSolver is the state of one component solve.
type refCSolver struct {
	prog  *ir.Program
	pre   *prean.Result
	g     *dug.Graph
	p     *dug.Partition
	s     *octsem.Sem
	wl    *worklist.Worklist
	opt   Options
	res   *Result
	sched *compsched.Sched

	// counts mirrors refSolver.counts: one widening counter per node.
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
func (cs *refCSolver) applyMarks(queue []ir.PointID) {
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

func (cs *refCSolver) anySeeds() bool {
	for _, s := range cs.seeds {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// runComponent mirrors the interval solver's runComponent with the octagon
// budget stride (64, matching the global-worklist octagon solver).
func (cs *refCSolver) runComponent(c int32) {
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
func (cs *refCSolver) fire(n dug.NodeID) {
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
func (cs *refCSolver) mark(t ir.PointID) {
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
func (cs *refCSolver) pushOuts(n dug.NodeID, m octsem.OMem) {
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
			next, ok := refDeliver(sacc.Get(l), joined)
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

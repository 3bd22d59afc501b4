// Package prean implements the flow-insensitive pre-analysis of
// Section 3.2: the abstraction that collapses all control points into one
// global invariant (α_pre forgets control flow), giving a conservative
// memory T̂pre ⊒ every point of the real fixpoint.
//
// The pre-analysis serves three roles in the framework:
//  1. it supplies the conservative memory from which D̂(c)/Û(c) are derived,
//  2. it resolves function pointers, fixing the call graph for every
//     analyzer (the paper resolves function pointers the same way),
//  3. it provides per-procedure accessed-location summaries used both by
//     access-based localization (Interval_base) and by the interprocedural
//     def-use-graph construction.
//
// The global invariant is computed by a sequential semi-naive sweep: passes
// alternate direction over every point and thread one accumulator, but a
// point is re-applied only when a location it read has changed since its
// last application, and it weakly sets only the locations it defines. The
// invariant, and the number of passes, are those of re-applying every point
// in every pass (see sweeper). Call resolution and summary collection run
// afterwards.
package prean

import (
	"sparrow/internal/callgraph"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
)

// Result is the pre-analysis outcome.
type Result struct {
	// Mem is the single flow-insensitive invariant (T̂pre at every point).
	Mem mem.Mem
	// Callees[pt] lists the resolved callees of call point pt.
	Callees map[ir.PointID][]ir.ProcID
	// CG is the call graph over resolved callees.
	CG *callgraph.Graph
	// DefSummary[p]/UseSummary[p] are the transitive definition/use
	// summaries of procedure p: every abstract location p or its callees
	// may define/use (the D*(P)/U*(P) of the interprocedural extension in
	// Section 5). Each summary is a sorted, interned []ir.LocID slice —
	// identical summaries share one backing array — and must be treated as
	// immutable; membership is ir.LocsContain.
	DefSummary [][]ir.LocID
	UseSummary [][]ir.LocID
	// RetSites[p] lists the RetBind points receiving returns from p;
	// CallSites[p] the Call points invoking p.
	RetSites  [][]ir.PointID
	CallSites [][]ir.PointID
	// Passes is the number of global iterations until stabilization.
	Passes int

	// applications counts the points the global-invariant sweep applied
	// (a skipped point is not counted).
	applications int

	// accessed memoizes Accessed per procedure: the union of the def and
	// use summaries never changes after Run, and Accessed sits on the
	// localization hot path (every call boundary restricts through it).
	accessed [][]ir.LocID
}

// CalleesOf returns the resolved callees of a call point.
func (r *Result) CalleesOf(pt ir.PointID) []ir.ProcID { return r.Callees[pt] }

// Sem returns the interval semantics of prog, the program r analyzed: calls
// resolve through r's call graph, and the procedures on its recursion cycles
// keep summary cells. EntryMarks is left nil.
func (r *Result) Sem(prog *ir.Program) *sem.Sem {
	return &sem.Sem{Prog: prog, Callees: r.CalleesOf, InCycle: r.CG.InCycle}
}

// Accessed reports the union of the def and use summaries of p (the
// localization set of the access-based technique) as a sorted slice. The
// union is computed once per procedure and cached; callers must not mutate
// the result.
func (r *Result) Accessed(p ir.ProcID) []ir.LocID {
	if r.accessed == nil {
		r.accessed = make([][]ir.LocID, len(r.DefSummary))
	}
	if a := r.accessed[p]; a != nil {
		return a
	}
	out := ir.MergeLocs(nil, r.DefSummary[p], r.UseSummary[p])
	r.accessed[p] = out
	return out
}

// joinPasses is how many plain join passes run before widening kicks in.
const joinPasses = 3

// Run computes the pre-analysis of prog.
func Run(prog *ir.Program) *Result { return RunBudget(prog, nil) }

// RunBudget computes the pre-analysis under a cooperative budget. bud is
// checkpointed between global-invariant passes, in-pass every 2048 points
// visited, and between the post-fixpoint stages. A pre-analysis cannot
// produce a partial result, so a breach aborts via rt.Abort (recovered at
// the core boundary). bud == nil never aborts.
func RunBudget(prog *ir.Program, bud *rt.Budget) *Result {
	sw := newSweeper(prog)
	g, passes := sw.run(bud)
	r := finish(prog, g, passes, bud)
	r.applications = sw.applications
	return r
}

// finish derives everything but the invariant from the global invariant g
// reached after passes sweeps: the resolved call graph, the def/use
// summaries and the call/return sites.
func finish(prog *ir.Program, g mem.Mem, passes int, bud *rt.Budget) *Result {
	bud.Checkpoint(rt.PhasePrean)
	r := &Result{
		Mem:     g,
		Callees: make(map[ir.PointID][]ir.ProcID),
		Passes:  passes,
	}
	// Resolve the call graph from the final invariant.
	se := sem.New(prog)
	for _, pt := range prog.Points {
		if c, ok := pt.Cmd.(ir.Call); ok {
			r.Callees[pt.ID] = append([]ir.ProcID(nil), se.Eval(c.F, g).Fns()...)
		}
	}
	bud.Checkpoint(rt.PhasePrean)
	r.CG = callgraph.Build(prog, r.CalleesOf)
	se.InCycle = r.CG.InCycle
	r.buildSummaries(prog, se)
	bud.Checkpoint(rt.PhasePrean)
	r.buildSites(prog)
	// Intern the summaries and memoize the localization sets eagerly:
	// repetitive programs (many callers of the same leaves) collapse onto a
	// handful of shared backing arrays, and first-interned-wins keeps the
	// canonical slices deterministic.
	it := ir.NewLocSetInterner()
	for p := range r.DefSummary {
		r.DefSummary[p] = it.Intern(r.DefSummary[p])
		r.UseSummary[p] = it.Intern(r.UseSummary[p])
	}
	r.accessed = make([][]ir.LocID, len(prog.Procs))
	var buf []ir.LocID
	for p := range r.accessed {
		buf = ir.MergeLocs(buf[:0], r.DefSummary[p], r.UseSummary[p])
		r.accessed[p] = it.Intern(buf)
	}
	return r
}

// sweeper computes the global invariant semi-naively. Every pass visits
// the points in alternating direction and threads one accumulator through
// them, but a point is re-applied only when a location it read at its last
// application has changed since, and an application weakly sets only the
// locations the point defines. Skipping is exact: the accumulator only
// grows (weak sets, and widening returns an upper bound of its input), so a
// point whose reads are unchanged would produce the values it produced
// before, which the accumulator already covers — its re-application is a
// no-op join. Every pass therefore ends on the memory a full re-application
// sweep reaches, with the same pass count.
//
// Change is tracked with a monotone clock: stamp[l] is the clock of l's
// last value change, seen[i] the clock when point i was last applied and
// reads[i] the locations it read then.
type sweeper struct {
	s   *sem.Sem
	acc mem.Mem

	clock int
	stamp []int
	seen  []int
	reads [][]ir.LocID

	// passStart is the clock when the current pass began; changed lists,
	// once each, the locations whose value changed during the pass.
	passStart int
	changed   []ir.LocID

	buf     []ir.LocID // reads of the point being applied
	addRead func(ir.LocID)
	args    []val.Val

	applications int
}

func newSweeper(prog *ir.Program) *sweeper {
	sw := &sweeper{
		s:     sem.New(prog),
		stamp: make([]int, prog.Locs.Len()),
		seen:  make([]int, len(prog.Points)),
		reads: make([][]ir.LocID, len(prog.Points)),
	}
	for i := range sw.seen {
		sw.seen[i] = -1 // never applied
	}
	sw.addRead = func(l ir.LocID) { sw.buf = append(sw.buf, l) }
	return sw
}

// run iterates passes to the global invariant and returns it with the
// number of passes.
func (sw *sweeper) run(bud *rt.Budget) (mem.Mem, int) {
	points := sw.s.Prog.Points
	g := mem.Bot
	pass := 0
	for {
		pass++
		bud.Checkpoint(rt.PhasePrean)
		sw.passStart = sw.clock
		sw.changed = sw.changed[:0]
		// Alternate sweep direction: argument values flow down the call
		// graph and return values flow up, so a fixed direction propagates
		// long call chains one level per pass (quadratic overall);
		// alternating sweeps cover both directions in two passes.
		if pass%2 == 1 {
			for i, pt := range points {
				if bud != nil && i%2048 == 2047 {
					bud.Checkpoint(rt.PhasePrean)
				}
				sw.visit(i, pt)
			}
		} else {
			for i := len(points) - 1; i >= 0; i-- {
				if bud != nil && i%2048 == 2047 {
					bud.Checkpoint(rt.PhasePrean)
				}
				sw.visit(i, points[i])
			}
		}
		next := sw.acc
		if pass > joinPasses {
			// Only a location that changed during the pass can differ
			// between next and g, so only those can move under widening.
			w := g.Widen(next)
			for _, l := range sw.changed {
				if !w.Get(l).Eq(next.Get(l)) {
					sw.clock++
					sw.stamp[l] = sw.clock
				}
			}
			next = w
			sw.acc = w
		}
		if next.Eq(g) {
			return g, pass
		}
		g = next
	}
}

// visit applies point i unless it was applied before and no location it
// read then has changed since.
func (sw *sweeper) visit(i int, pt *ir.Point) {
	if seen := sw.seen[i]; seen >= 0 {
		stale := false
		for _, l := range sw.reads[i] {
			if int(l) < len(sw.stamp) && sw.stamp[l] > seen {
				stale = true
				break
			}
		}
		if !stale {
			return
		}
	}
	sw.applications++
	// Stamp the application before its own writes, so a point that reads
	// what it writes (x = x + 1) is re-applied on the next pass.
	sw.seen[i] = sw.clock
	sw.buf = sw.reads[i][:0]
	sw.apply(pt)
	sw.reads[i] = sw.buf
}

// apply folds the contribution of one point into the accumulator: the
// values of every location it may define, joined weakly. Every value is
// evaluated before the first write, against the accumulator as the point
// found it.
func (sw *sweeper) apply(pt *ir.Point) {
	prog := sw.s.Prog
	switch c := pt.Cmd.(type) {
	case ir.Set:
		sw.weakSet(c.L, sw.eval(c.E))
	case ir.Store:
		sw.store(c.P, c.E, "")
	case ir.StoreField:
		sw.store(c.P, c.E, c.F)
	case ir.Alloc:
		n := sw.eval(c.N).Itv()
		al := prog.Locs.Alloc(c.Site)
		sw.weakSet(al, val.TopInt) // heap cells start indeterminate
		sw.weakSet(c.L, val.FromPtr(al, val.Region{Off: itv.Single(0), Sz: n}))
	case ir.Return:
		if rl := prog.ProcByID(pt.Proc).RetLoc; c.E != nil && rl != ir.None {
			sw.weakSet(rl, sw.eval(c.E))
		}
	case ir.Call:
		// Bind formals of every currently-resolved callee. Each argument
		// is evaluated once, and only if some callee has a formal for it.
		fns := sw.eval(c.F).Fns()
		n := 0
		for _, p := range fns {
			n = max(n, len(prog.ProcByID(p).Formals))
		}
		args := sw.args[:0]
		for _, a := range c.Args[:min(n, len(c.Args))] {
			args = append(args, sw.eval(a))
		}
		sw.args = args
		for _, p := range fns {
			for i, f := range prog.ProcByID(p).Formals {
				v := val.TopInt
				if i < len(args) {
					v = args[i]
				}
				sw.weakSet(f, v)
			}
		}
	case ir.RetBind:
		if c.L == ir.None {
			return
		}
		call := prog.Point(c.CallPt).Cmd.(ir.Call)
		fns := sw.eval(call.F).Fns()
		v := val.Bot
		if len(fns) == 0 {
			v = val.TopInt
		}
		for _, p := range fns {
			rl := prog.ProcByID(p).RetLoc
			if rl == ir.None {
				v = v.Join(val.TopInt)
				continue
			}
			sw.buf = append(sw.buf, rl)
			v = v.Join(sw.acc.Get(rl))
		}
		sw.weakSet(c.L, v)
	}
	// Assume contributes nothing: refinement is meaningless against a
	// global invariant (its uses still count for D̂/Û). Entry marks nothing
	// without the uninit checker, and Exit and Skip have no effect.
}

// store weakly writes the value of ve to every target of the pointer pe
// (field f of it, when f is non-empty).
func (sw *sweeper) store(pe, ve ir.Expr, f string) {
	pv := sw.eval(pe)
	v := sw.eval(ve)
	for _, t := range pv.Ptr() {
		l := t.Loc
		if f != "" {
			l = sw.s.Prog.Locs.Field(l, f)
		}
		sw.weakSet(l, v)
	}
}

// eval evaluates e against the accumulator and records the locations it
// reads. Evaluation first: the reads interned by UseOf are a subset of
// those interned by Eval, so locations are interned in evaluation order.
func (sw *sweeper) eval(e ir.Expr) val.Val {
	v := sw.s.Eval(e, sw.acc)
	sw.s.UseOf(e, sw.acc, sw.addRead)
	return v
}

// weakSet joins v into l and stamps l if its binding changed.
func (sw *sweeper) weakSet(l ir.LocID, v val.Val) {
	next := sw.acc.WeakSet(l, v)
	if next.Same(sw.acc) {
		return
	}
	sw.acc = next
	if n := sw.s.Prog.Locs.Len(); n > len(sw.stamp) {
		// The sweep interns field and allocation locations as it goes.
		sw.stamp = append(sw.stamp, make([]int, n-len(sw.stamp))...)
	}
	if sw.stamp[l] <= sw.passStart {
		sw.changed = append(sw.changed, l)
	}
	sw.clock++
	sw.stamp[l] = sw.clock
}

// buildSummaries computes transitive def/use summaries bottom-up over the
// call-graph condensation, iterating within SCCs until stable, from each
// procedure's own D̂/Û.
func (r *Result) buildSummaries(prog *ir.Program, s *sem.Sem) {
	n := len(prog.Procs)
	r.DefSummary = make([][]ir.LocID, n)
	r.UseSummary = make([][]ir.LocID, n)
	ownD := make([][]ir.LocID, n)
	ownU := make([][]ir.LocID, n)
	s.Callees = r.CalleesOf
	var d, u []ir.LocID
	for _, pr := range prog.Procs {
		d, u = d[:0], u[:0]
		for _, id := range pr.Points {
			d, u = s.DefsUsesAppend(prog.Point(id), r.Mem, d, u)
		}
		d, u = ir.DedupLocs(d), ir.DedupLocs(u)
		ownD[pr.ID] = append([]ir.LocID(nil), d...)
		ownU[pr.ID] = append([]ir.LocID(nil), u...)
	}
	r.DefSummary, r.UseSummary = SummarizeSCCs(r.CG, ownD, ownU)
}

// SummarizeSCCs closes command-local own-def/own-use sets (sorted slices,
// indexed by procedure) transitively over the call-graph condensation and
// returns the per-procedure summaries. The condensation is emitted
// callees-first by Tarjan, so one sweep with an inner SCC fixpoint suffices.
// Unions are sorted-slice merges into two alternating scratch buffers (a
// merge may not write into a buffer it is reading from); because a summary
// only grows, a length comparison detects change exactly. The relational
// analysis reuses this over pack IDs.
func SummarizeSCCs(cg *callgraph.Graph, ownD, ownU [][]ir.LocID) (defSum, useSum [][]ir.LocID) {
	n := len(ownD)
	defSum = make([][]ir.LocID, n)
	useSum = make([][]ir.LocID, n)
	var bufs [2][]ir.LocID
	which := 0
	unionAll := func(own []ir.LocID, p ir.ProcID, summ [][]ir.LocID) []ir.LocID {
		cur := own
		for _, q := range cg.Succs[p] {
			s := summ[q]
			if len(s) == 0 {
				continue
			}
			dst := ir.MergeLocs(bufs[which][:0], cur, s)
			bufs[which] = dst
			cur = dst
			which ^= 1
		}
		return cur
	}
	for _, comp := range cg.SCCs {
		for changed := true; changed; {
			changed = false
			for _, p := range comp {
				if d := unionAll(ownD[p], p, defSum); len(d) != len(defSum[p]) {
					defSum[p] = append([]ir.LocID(nil), d...)
					changed = true
				}
				if u := unionAll(ownU[p], p, useSum); len(u) != len(useSum[p]) {
					useSum[p] = append([]ir.LocID(nil), u...)
					changed = true
				}
			}
		}
	}
	return defSum, useSum
}

func (r *Result) buildSites(prog *ir.Program) {
	n := len(prog.Procs)
	r.RetSites = make([][]ir.PointID, n)
	r.CallSites = make([][]ir.PointID, n)
	for _, pt := range prog.Points {
		rb, ok := pt.Cmd.(ir.RetBind)
		if !ok {
			continue
		}
		for _, p := range r.Callees[rb.CallPt] {
			r.CallSites[p] = append(r.CallSites[p], rb.CallPt)
			r.RetSites[p] = append(r.RetSites[p], pt.ID)
		}
	}
}

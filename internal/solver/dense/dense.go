// Package dense implements the conventional (non-sparse) global fixpoint
// computation of abstract semantics over the interprocedural control-flow
// graph: F#(X) = λc. f#_c(⊔_{c'↪c} X(c')) of Section 2.3. The loop is
// generic over the map-shaped domain L# → V#: the interval analysis
// instantiates it with mem.Mem and the packed relational analysis with
// octsem.OMem (the baselines of Tables 2 and 3).
//
// Two variants correspond to the paper's baselines:
//
//   - vanilla (Options.Localize == false): whole abstract memories are
//     propagated along every control-flow edge, including through call and
//     return edges (Interval_vanilla / Octagon_vanilla).
//   - base (Options.Localize == true): access-based localization [Oh et al.,
//     VMCAI'11] — at a call, only the callee's accessed locations enter the
//     callee; the rest of the caller's memory bypasses it and is re-joined
//     at the return site (Interval_base / Octagon_base).
package dense

import (
	"sparrow/internal/cfg"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/worklist"
)

// Mem is what the loop needs of an abstract memory M whose keys (abstract
// locations or packs) have type K: the fused change-reporting join, widening
// and narrowing, a plain join for the narrowing sweep, and the sorted
// restriction and removal localization uses. mem.Mem and octsem.OMem
// satisfy it.
type Mem[M, K any] interface {
	Join(M) M
	JoinChanged(M) (M, bool)
	WidenChanged(M) (M, bool)
	NarrowChanged(M) (M, bool)
	RestrictSorted([]K) M
	RemoveSorted([]K) M
}

// Sem is the abstract semantics the loop applies: the transfer function of a
// point (false when a refuted assume lets nothing flow past) and the binding
// of actuals to formals at a call edge. *sem.Sem and *octsem.Sem implement
// it.
type Sem[M any] interface {
	Transfer(pt *ir.Point, m M) (M, bool)
	BindFormals(callPt *ir.Point, callee *ir.Proc, m M) M
}

// Options configures the dense solver.
type Options struct {
	// Localize enables access-based localization at procedure boundaries.
	Localize bool
	// MaxSteps aborts after this many transfer applications (0 = none).
	// An aborted analysis sets Result.TimedOut.
	MaxSteps int
	// Narrow runs this many descending (narrowing) passes after the
	// ascending fixpoint stabilizes.
	Narrow int
	// Metrics, when non-nil, receives the solver's work counters (worklist
	// pops, value-changing joins, effective widenings, localization
	// bypasses) when Analyze returns. The solver counts into Result fields
	// on the hot path and flushes once, so instrumentation costs nothing
	// per step.
	Metrics *metrics.Collector
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled every stride steps; a breach stops the solver like a
	// MaxSteps cut (TimedOut set). nil is free.
	Budget *rt.Budget
}

const (
	// widenThreshold forces widening at any point updated more than this
	// many times, a safety valve guaranteeing termination beyond the
	// structural widening points.
	widenThreshold = 40
	// entryWidenDelay starts widening at procedure entries after this many
	// updates. Entries of procedures with several call sites sit on
	// spurious interprocedural cycles (exit → return site → another call →
	// entry), which ascend unboundedly when a callee's effect feeds back; a
	// small delay keeps precision for plain multi-site argument joins while
	// cutting the feedback cycles.
	entryWidenDelay = 4
	// IntervalStride and OctagonStride are the poll strides of the two
	// instances: the steps between two polls of the Budget. They fix the ordinals of the budget
	// checkpoints that fault injection counts.
	IntervalStride = 256
	OctagonStride  = 64
)

// Result is the dense fixpoint.
type Result[M any] struct {
	// In[pt] is the abstract memory before the command at pt.
	In []M
	// Reached[pt] reports whether pt was ever visited.
	Reached []bool
	// Steps counts transfer-function applications.
	Steps int
	// Widenings counts effective widening applications — ones where the
	// widened value differs from the plain join. When zero, the run never
	// extrapolated, so the result is the least fixpoint and is
	// schedule-independent (the surface on which exact cross-analyzer
	// equality is a theorem; see internal/fuzz).
	Widenings int
	// Joins counts deliveries whose join changed the target's input
	// (ascending phase only).
	Joins int
	// Bypasses counts per-callee localization bypass deliveries — the
	// caller-memory complements routed around callees to return sites
	// (Localize only; ascending phase).
	Bypasses int
	// TimedOut is set when MaxSteps or a Budget breach aborted the run.
	TimedOut bool
}

// Out returns the post-state of pt (the transfer applied to In[pt]).
func (r *Result[M]) Out(s Sem[M], pt *ir.Point) M {
	m, _ := s.Transfer(pt, r.In[pt.ID])
	return m
}

type solver[M Mem[M, K], K any] struct {
	prog  *ir.Program
	pre   *prean.Result
	s     Sem[M]
	entry M
	opt   Options
	info  *cfg.Info
	res   *Result[M]
	wl    *worklist.Worklist

	counts []int32
	acc    [][]K // per proc: accessed keys (Localize only)
	lim    rt.Limits
}

// Analyze runs the dense analysis of prog with the semantics s, using the
// pre-analysis pre for call resolution. Main's entry starts from entry.
// With Options.Localize, accessed(p) is the sorted key set procedure p
// accesses. The Budget is polled every stride steps.
func Analyze[M Mem[M, K], K any](prog *ir.Program, pre *prean.Result, s Sem[M], entry M, accessed func(ir.ProcID) []K, stride int, opt Options) *Result[M] {
	sv := &solver[M, K]{
		prog:  prog,
		pre:   pre,
		s:     s,
		entry: entry,
		opt:   opt,
		info:  cfg.Compute(prog, pre.CG, pre.CalleesOf),
		res: &Result[M]{
			In:      make([]M, len(prog.Points)),
			Reached: make([]bool, len(prog.Points)),
		},
		counts: make([]int32, len(prog.Points)),
		lim:    rt.NewLimits(opt.MaxSteps, opt.Budget, stride),
	}
	if opt.Localize {
		sv.acc = make([][]K, len(prog.Procs))
		for _, pr := range prog.Procs {
			sv.acc[pr.ID] = accessed(pr.ID)
		}
	}
	sv.run()
	if opt.Narrow > 0 && !sv.res.TimedOut {
		sv.narrow(opt.Narrow)
	}
	opt.Metrics.Add(metrics.CtrPops, int64(sv.res.Steps))
	opt.Metrics.Add(metrics.CtrJoins, int64(sv.res.Joins))
	opt.Metrics.Add(metrics.CtrWidenings, int64(sv.res.Widenings))
	opt.Metrics.Add(metrics.CtrBypasses, int64(sv.res.Bypasses))
	return sv.res
}

func (sv *solver[M, K]) run() {
	sv.wl = worklist.New(len(sv.prog.Points), sv.info.Prio)
	root := sv.prog.ProcByID(sv.prog.Main)
	sv.res.In[root.Entry] = sv.entry
	sv.res.Reached[root.Entry] = true
	sv.wl.Add(int(root.Entry))
	for {
		id, ok := sv.wl.Take()
		if !ok {
			return
		}
		sv.res.Steps++
		if sv.lim.Stop(sv.res.Steps) {
			sv.res.TimedOut = true
			return
		}
		pt := sv.prog.Point(ir.PointID(id))
		if out, ok := sv.s.Transfer(pt, sv.res.In[pt.ID]); ok {
			sv.route(pt, out, sv.deliver)
		}
	}
}

// route sends out, the post-state of pt, along pt's interprocedural edges:
// a call's to each callee's entry (and, localized, each callee's complement
// past it to the return sites, with bypass set), an exit's to its return
// sites, and any other point's to its CFG successors.
func (sv *solver[M, K]) route(pt *ir.Point, out M, push func(t ir.PointID, m M, bypass bool)) {
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := sv.pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				push(s, out, false)
			}
			return
		}
		for _, p := range callees {
			callee := sv.prog.ProcByID(p)
			bound := sv.s.BindFormals(pt, callee, out)
			if sv.opt.Localize {
				bound = bound.RestrictSorted(sv.acc[p])
			}
			push(callee.Entry, bound, false)
		}
		if sv.opt.Localize {
			// The part a callee does not access bypasses it to the return
			// site. The bypass is per callee: with several (indirect)
			// callees the caller's value of a location accessed by one
			// callee still survives along the paths through the others, so
			// removing only the union of the access sets would unsoundly
			// drop it. Joining the per-callee complements at the return
			// site covers every path.
			for _, p := range callees {
				local := out.RemoveSorted(sv.acc[p])
				for _, s := range pt.Succs {
					push(s, local, true)
				}
			}
		}
	case ir.Exit:
		m := out
		if sv.opt.Localize {
			m = out.RestrictSorted(sv.acc[pt.Proc])
		}
		for _, rs := range sv.pre.RetSites[pt.Proc] {
			push(rs, m, false)
		}
	default:
		for _, s := range pt.Succs {
			push(s, out, false)
		}
	}
}

// deliver joins m into the input of target, widening at widening points,
// and enqueues the target when its input grew (or on first reach).
func (sv *solver[M, K]) deliver(target ir.PointID, m M, bypass bool) {
	if bypass {
		sv.res.Bypasses++
	}
	first := !sv.res.Reached[target]
	sv.res.Reached[target] = true
	old := sv.res.In[target]
	// The fused join reports the semantic change during the merge itself; a
	// converged delivery returns old physically and allocates nothing.
	joined, jch := old.JoinChanged(m)
	changed := first
	if jch {
		sv.res.Joins++
		sv.counts[target]++
		widen := sv.info.Widen[target] || int(sv.counts[target]) > widenThreshold
		if !widen && int(sv.counts[target]) > entryWidenDelay {
			if _, isEntry := sv.prog.Point(target).Cmd.(ir.Entry); isEntry {
				widen = true
			}
		}
		if widen {
			// WidenChanged always returns the built result: the octagon's
			// unclosed widening representations are what the next widening
			// must start from.
			wv, wch := old.WidenChanged(joined)
			if wch {
				sv.res.Widenings++
			}
			joined = wv
		}
		sv.res.In[target] = joined
		changed = true
	}
	if changed {
		sv.wl.Add(int(target))
	}
}

// narrow runs descending passes: it recomputes each point's incoming join
// and narrows the stabilized input towards it, recovering precision lost to
// widening (standard widening/narrowing iteration). Each pass is a Jacobi
// sweep (all contributions computed from the previous iterate, then narrowed
// at once, which is the order-insensitive sound formulation); passes bounds
// the sweeps and iteration stops early at stability.
func (sv *solver[M, K]) narrow(passes int) {
	for i := 0; i < passes; i++ {
		if sv.opt.Budget != nil && sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
			sv.res.TimedOut = true
			return
		}
		stable := true
		next := make([]M, len(sv.prog.Points))
		reached := make([]bool, len(sv.prog.Points))
		root := sv.prog.ProcByID(sv.prog.Main)
		next[root.Entry] = sv.entry
		reached[root.Entry] = true
		push := func(t ir.PointID, m M, _ bool) {
			next[t] = next[t].Join(m)
			reached[t] = true
		}
		for _, pt := range sv.prog.Points {
			if !sv.res.Reached[pt.ID] {
				continue
			}
			if out, ok := sv.s.Transfer(pt, sv.res.In[pt.ID]); ok {
				sv.route(pt, out, push)
			}
		}
		for id := range sv.res.In {
			if !reached[id] {
				continue
			}
			narrowed, nch := sv.res.In[id].NarrowChanged(next[id])
			if nch {
				stable = false
				sv.res.In[id] = narrowed
			}
		}
		if stable {
			return
		}
	}
}

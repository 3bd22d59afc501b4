// Package dense implements the conventional (non-sparse) global fixpoint
// computation of abstract semantics over the interprocedural control-flow
// graph: F#(X) = λc. f#_c(⊔_{c'↪c} X(c')) of Section 2.3.
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
	"time"

	"sparrow/internal/cfg"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/worklist"
)

// Options configures the dense solver.
type Options struct {
	// Localize enables access-based localization at procedure boundaries.
	Localize bool
	// Timeout aborts the analysis after the given wall-clock budget
	// (0 = none). An aborted analysis sets Result.TimedOut.
	Timeout time.Duration
	// MaxSteps aborts after this many transfer applications (0 = none).
	MaxSteps int
	// WidenThreshold forces widening at any point updated more than this
	// many times, a safety valve guaranteeing termination beyond the
	// structural widening points. 0 uses the default.
	WidenThreshold int
	// EntryWidenDelay starts widening at procedure entries after this many
	// updates. Entries of procedures with several call sites sit on
	// spurious interprocedural cycles (exit → return site → another call →
	// entry), which ascend unboundedly when a callee's effect feeds back;
	// a small delay keeps precision for plain multi-site argument joins
	// while cutting the feedback cycles. 0 uses the default.
	EntryWidenDelay int
	// Narrow runs this many descending (narrowing) passes after the
	// ascending fixpoint stabilizes.
	Narrow int
	// Metrics, when non-nil, receives the solver's work counters (worklist
	// pops, value-changing joins, effective widenings, localization
	// bypasses) when Analyze returns. The solver counts into Result fields
	// on the hot path and flushes once, so instrumentation costs nothing
	// per step.
	Metrics *metrics.Collector
	// EntryMarks is forwarded to the semantics (sem.Sem.EntryMarks): the
	// per-procedure locations an Entry marks possibly-uninitialized for the
	// uninit checker. Nil (the default) disables marking.
	EntryMarks func(ir.ProcID) []ir.LocID
	// Budget is the cooperative cancellation token (internal/runtime),
	// polled at the same amortized stride as the Timeout check; a breach
	// stops the solver like a timeout (TimedOut set). nil is free.
	Budget *rt.Budget
}

const (
	defaultWidenThreshold  = 40
	defaultEntryWidenDelay = 4
)

// Result is the dense fixpoint.
type Result struct {
	// In[pt] is the abstract memory before the command at pt.
	In []mem.Mem
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
	// TimedOut is set when Timeout or MaxSteps aborted the run.
	TimedOut bool
}

// Out returns the post-state of pt (the transfer applied to In[pt]).
func (r *Result) Out(s *sem.Sem, pt *ir.Point) mem.Mem {
	m, _ := s.Transfer(pt, r.In[pt.ID])
	return m
}

type solver struct {
	prog *ir.Program
	pre  *prean.Result
	s    *sem.Sem
	opt  Options
	info *cfg.Info
	res  *Result
	wl   *worklist.Worklist

	counts   []int32
	accCache [][]ir.LocID // per proc: accessed set (Localize only)
	lim      rt.Limits
}

// Analyze runs the dense analysis of prog using the pre-analysis pre for
// call resolution (and localization summaries).
func Analyze(prog *ir.Program, pre *prean.Result, opt Options) *Result {
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
	sv := &solver{
		prog: prog,
		pre:  pre,
		s:    &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle, EntryMarks: opt.EntryMarks},
		opt:  opt,
		info: cfg.Compute(prog, pre.CG, pre.CalleesOf),
		res: &Result{
			In:      make([]mem.Mem, len(prog.Points)),
			Reached: make([]bool, len(prog.Points)),
		},
		counts: make([]int32, len(prog.Points)),
	}
	if opt.Localize {
		sv.accCache = make([][]ir.LocID, len(prog.Procs))
		for _, pr := range prog.Procs {
			sv.accCache[pr.ID] = pre.Accessed(pr.ID)
		}
	}
	sv.lim = rt.NewLimits(opt.MaxSteps, opt.Timeout, opt.Budget, 256)
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

func (sv *solver) run() {
	sv.wl = worklist.New(len(sv.prog.Points), sv.info.Prio)
	root := sv.prog.ProcByID(sv.prog.Main)
	sv.res.Reached[root.Entry] = true
	sv.wl.Add(int(root.Entry))
	for {
		id, ok := sv.wl.Take()
		if !ok {
			return
		}
		sv.res.Steps++
		if sv.lim.Stop(sv.res.Steps, sv.res.Steps) {
			sv.res.TimedOut = true
			return
		}
		sv.step(sv.prog.Point(ir.PointID(id)))
	}
}

// step applies the transfer at pt and propagates to its (interprocedural)
// successors.
func (sv *solver) step(pt *ir.Point) {
	out, ok := sv.s.Transfer(pt, sv.res.In[pt.ID])
	if !ok {
		return // refuted assume: nothing flows past
	}
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := sv.pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				sv.deliver(s, out)
			}
			return
		}
		for _, p := range callees {
			callee := sv.prog.ProcByID(p)
			bound := sv.s.BindFormals(pt, callee, out)
			if sv.opt.Localize {
				bound = bound.RestrictSorted(sv.accCache[p])
			}
			sv.deliver(callee.Entry, bound)
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
				local := out.RemoveSorted(sv.accCache[p])
				for _, s := range pt.Succs {
					sv.res.Bypasses++
					sv.deliver(s, local)
				}
			}
		}
	case ir.Exit:
		proc := pt.Proc
		m := out
		if sv.opt.Localize {
			m = out.RestrictSorted(sv.accCache[proc])
		}
		for _, rs := range sv.pre.RetSites[proc] {
			sv.deliver(rs, m)
		}
	default:
		for _, s := range pt.Succs {
			sv.deliver(s, out)
		}
	}
}

// deliver joins m into the input of target, widening at widening points,
// and enqueues the target when its input grew (or on first reach).
func (sv *solver) deliver(target ir.PointID, m mem.Mem) {
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
		widen := sv.info.Widen[target] || int(sv.counts[target]) > sv.opt.WidenThreshold
		if !widen && int(sv.counts[target]) > sv.opt.EntryWidenDelay {
			if _, isEntry := sv.prog.Point(target).Cmd.(ir.Entry); isEntry {
				widen = true
			}
		}
		if widen {
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
func (sv *solver) narrow(passes int) {
	for i := 0; i < passes; i++ {
		if sv.opt.Budget != nil && sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
			sv.res.TimedOut = true
			return
		}
		stable := true
		next := make([]mem.Mem, len(sv.prog.Points))
		reached := make([]bool, len(sv.prog.Points))
		root := sv.prog.ProcByID(sv.prog.Main)
		reached[root.Entry] = true
		for _, pt := range sv.prog.Points {
			if !sv.res.Reached[pt.ID] {
				continue
			}
			out, ok := sv.s.Transfer(pt, sv.res.In[pt.ID])
			if !ok {
				continue
			}
			push := func(t ir.PointID, m mem.Mem) {
				next[t] = next[t].Join(m)
				reached[t] = true
			}
			switch pt.Cmd.(type) {
			case ir.Call:
				callees := sv.pre.CalleesOf(pt.ID)
				if len(callees) == 0 {
					for _, s := range pt.Succs {
						push(s, out)
					}
					break
				}
				for _, p := range callees {
					callee := sv.prog.ProcByID(p)
					bound := sv.s.BindFormals(pt, callee, out)
					if sv.opt.Localize {
						bound = bound.RestrictSorted(sv.accCache[p])
					}
					push(callee.Entry, bound)
				}
				if sv.opt.Localize {
					// Per-callee bypass; see step.
					for _, p := range callees {
						local := out.RemoveSorted(sv.accCache[p])
						for _, s := range pt.Succs {
							push(s, local)
						}
					}
				}
			case ir.Exit:
				m := out
				if sv.opt.Localize {
					m = out.RestrictSorted(sv.accCache[pt.Proc])
				}
				for _, rs := range sv.pre.RetSites[pt.Proc] {
					push(rs, m)
				}
			default:
				for _, s := range pt.Succs {
					push(s, out)
				}
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

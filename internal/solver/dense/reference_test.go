package dense

// The reference solvers: the interval and octagon dense loops as they were
// before the generic solver, kept verbatim (renamed; the widening knobs read
// the package constants, and the interval loop takes its semantics) so
// TestDenseMatchesReference and FuzzDense can pin the generic loop to them.

import (
	"sparrow/internal/cfg"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/worklist"
)

type refSolver struct {
	prog *ir.Program
	pre  *prean.Result
	s    *sem.Sem
	opt  Options
	info *cfg.Info
	res  *Result[mem.Mem]
	wl   *worklist.Worklist

	counts   []int32
	accCache [][]ir.LocID // per proc: accessed set (Localize only)
	lim      rt.Limits
}

// refAnalyze runs the dense analysis of prog using the pre-analysis pre for
// call resolution (and localization summaries).
func refAnalyze(prog *ir.Program, pre *prean.Result, s *sem.Sem, opt Options) *Result[mem.Mem] {
	sv := &refSolver{
		prog: prog,
		pre:  pre,
		s:    s,
		opt:  opt,
		info: cfg.Compute(prog, pre.CG, pre.CalleesOf),
		res: &Result[mem.Mem]{
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
	sv.lim = rt.NewLimits(opt.MaxSteps, opt.Budget, 256)
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

func (sv *refSolver) run() {
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
		if sv.lim.Stop(sv.res.Steps) {
			sv.res.TimedOut = true
			return
		}
		sv.step(sv.prog.Point(ir.PointID(id)))
	}
}

// step applies the transfer at pt and propagates to its (interprocedural)
// successors.
func (sv *refSolver) step(pt *ir.Point) {
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
func (sv *refSolver) deliver(target ir.PointID, m mem.Mem) {
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
func (sv *refSolver) narrow(passes int) {
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

type octRefSolver struct {
	prog *ir.Program
	pre  *prean.Result
	s    *octsem.Sem
	src  *dug.Source
	opt  Options
	info *cfg.Info
	res  *Result[octsem.OMem]
	wl   *worklist.Worklist

	counts   []int32
	accCache [][]pack.ID
	lim      rt.Limits
}

// refAnalyzeOct runs the dense relational analysis with the given packing
// semantics (obtained from octsem.Source).
func refAnalyzeOct(prog *ir.Program, pre *prean.Result, s *octsem.Sem, src *dug.Source, opt Options) *Result[octsem.OMem] {
	sv := &octRefSolver{
		prog: prog,
		pre:  pre,
		s:    s,
		src:  src,
		opt:  opt,
		info: cfg.Compute(prog, pre.CG, pre.CalleesOf),
		res: &Result[octsem.OMem]{
			In:      make([]octsem.OMem, len(prog.Points)),
			Reached: make([]bool, len(prog.Points)),
		},
		counts: make([]int32, len(prog.Points)),
	}
	if opt.Localize {
		sv.accCache = make([][]pack.ID, len(prog.Procs))
		for _, pr := range prog.Procs {
			sv.accCache[pr.ID] = octsem.Accessed(src, pr.ID)
		}
	}
	sv.lim = rt.NewLimits(opt.MaxSteps, opt.Budget, 64)
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

func (sv *octRefSolver) run() {
	sv.wl = worklist.New(len(sv.prog.Points), sv.info.Prio)
	root := sv.prog.ProcByID(sv.prog.Main)
	// The initial memory is arbitrary: every pack starts at Top.
	sv.res.In[root.Entry] = sv.s.TopState()
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
		sv.step(sv.prog.Point(ir.PointID(id)))
	}
}

func (sv *octRefSolver) step(pt *ir.Point) {
	out, ok := sv.s.Transfer(pt, sv.res.In[pt.ID])
	if !ok {
		return
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
			// Per-callee bypass: each callee's non-accessed packs survive
			// along its own path, so the complements are joined at the
			// return site rather than removing the union (which would drop
			// the caller's packs accessed by only some of the callees of an
			// indirect call). See the interval solver.
			for _, p := range callees {
				local := out.RemoveSorted(sv.accCache[p])
				for _, s := range pt.Succs {
					sv.res.Bypasses++
					sv.deliver(s, local)
				}
			}
		}
	case ir.Exit:
		m := out
		if sv.opt.Localize {
			m = out.RestrictSorted(sv.accCache[pt.Proc])
		}
		for _, rs := range sv.pre.RetSites[pt.Proc] {
			sv.deliver(rs, m)
		}
	default:
		for _, s := range pt.Succs {
			sv.deliver(s, out)
		}
	}
}

func (sv *octRefSolver) deliver(target ir.PointID, m octsem.OMem) {
	first := !sv.res.Reached[target]
	sv.res.Reached[target] = true
	old := sv.res.In[target]
	// Fused join: change detection happens inside the merge, avoiding a
	// separate Eq pass that re-closed every stored octagon.
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
			// WidenChanged always returns the built result: the unclosed
			// widening representations it stores are what the next widening
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

// narrow runs Jacobi descending sweeps (see the interval solver).
func (sv *octRefSolver) narrow(passes int) {
	for i := 0; i < passes; i++ {
		if sv.opt.Budget != nil && sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
			sv.res.TimedOut = true
			return
		}
		stable := true
		next := make([]octsem.OMem, len(sv.prog.Points))
		reached := make([]bool, len(sv.prog.Points))
		root := sv.prog.ProcByID(sv.prog.Main)
		next[root.Entry] = sv.s.TopState()
		reached[root.Entry] = true
		for _, pt := range sv.prog.Points {
			if !sv.res.Reached[pt.ID] {
				continue
			}
			out, ok := sv.s.Transfer(pt, sv.res.In[pt.ID])
			if !ok {
				continue
			}
			push := func(t ir.PointID, m octsem.OMem) {
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

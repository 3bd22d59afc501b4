// Package octdense implements the dense (non-sparse) fixpoint of the packed
// relational analysis: Octagon_vanilla (whole pack-states along every edge)
// and Octagon_base (access-based localization at procedure boundaries), the
// baselines of Table 3.
package octdense

import (
	"time"

	"sparrow/internal/cfg"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/worklist"
)

// Options configures the dense octagon solver (see the interval solver in
// package dense for the meaning of each field).
type Options struct {
	Localize        bool
	Timeout         time.Duration
	MaxSteps        int
	WidenThreshold  int
	EntryWidenDelay int
	Narrow          int
	// Metrics, when non-nil, receives the solver's work counters (pops,
	// value-changing joins, effective widenings, localization bypasses)
	// when Analyze returns.
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

// Result is the dense relational fixpoint.
type Result struct {
	In      []octsem.OMem
	Reached []bool
	Steps   int
	// Joins counts deliveries whose join changed the target's input;
	// Widenings the effective widenings among them; Bypasses the per-callee
	// localization bypass deliveries (Localize only). All ascending-phase.
	Joins     int
	Widenings int
	Bypasses  int
	TimedOut  bool
}

// Out returns the post-state of pt.
func (r *Result) Out(s *octsem.Sem, pt *ir.Point) octsem.OMem {
	m, _ := s.Transfer(pt, r.In[pt.ID])
	return m
}

type solver struct {
	prog *ir.Program
	pre  *prean.Result
	s    *octsem.Sem
	src  *dug.Source
	opt  Options
	info *cfg.Info
	res  *Result
	wl   *worklist.Worklist

	counts   []int32
	accCache [][]pack.ID
	lim      rt.Limits
}

// Analyze runs the dense relational analysis with the given packing
// semantics (obtained from octsem.Source).
func Analyze(prog *ir.Program, pre *prean.Result, s *octsem.Sem, src *dug.Source, opt Options) *Result {
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
	sv := &solver{
		prog: prog,
		pre:  pre,
		s:    s,
		src:  src,
		opt:  opt,
		info: cfg.Compute(prog, pre.CG, pre.CalleesOf),
		res: &Result{
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
	sv.lim = rt.NewLimits(opt.MaxSteps, opt.Timeout, opt.Budget, 64)
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

func (sv *solver) step(pt *ir.Point) {
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

func (sv *solver) deliver(target ir.PointID, m octsem.OMem) {
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
		widen := sv.info.Widen[target] || int(sv.counts[target]) > sv.opt.WidenThreshold
		if !widen && int(sv.counts[target]) > sv.opt.EntryWidenDelay {
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
func (sv *solver) narrow(passes int) {
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

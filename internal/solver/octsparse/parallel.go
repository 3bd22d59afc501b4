// Parallel sparse octagon solver: the pack-level def-use graph partitions
// into SCC components exactly like the interval graph (dug.Partition), so the
// octagon fixpoint schedules over the same pipelined component-task engine
// (internal/solver/compsched). The kernel mirrors the sequential solver's
// transfer loop per component — per-node widening counters, nil-pack
// handling, explicit Acc joins, the root entry's TopState injection — while
// reachability marks split into immediate (scheduling-DAG successors) and
// deferred (backward edges, applied by the wave barrier with the exact
// non-assume transitive closure: octsem.Transfer fails only on refuted
// assumes, the same property the interval closure relies on).
//
// The schedule is canonical for the same reason as the interval driver's:
// seed buckets are consumed in sorted order, the wave each bucket is
// consumed in depends only on the static DAG, and cross-component joins are
// commutative — so alarms, memories, and all counters are bit-identical for
// every worker count. The single-worker path below is the canonical
// sequential wave loop the pipelined configurations must reproduce.
//
// Octagon transfers are where the O(d³) closure work lives, so nodes that
// define many packs additionally stage their join/widen closures through
// par.For before applying them in definition order — the apply loop makes
// identical decisions in identical order, keeping the staging
// counter-neutral (see pushOuts).
package octsparse

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/par"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/solver/compsched"
	"sparrow/internal/worklist"
)

// AnalyzeParallel runs the sparse relational analysis with the partitioned
// component scheduler on opt.Workers goroutines. Results and counters are
// deterministic across worker counts; Timeout/MaxSteps aborts are
// best-effort and the truncated state they leave is the one
// schedule-dependent exception.
func AnalyzeParallel(prog *ir.Program, pre *prean.Result, s *octsem.Sem, g *dug.Graph, opt Options) *Result {
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
	opt.Workers = par.Workers(opt.Workers)
	n := g.NumNodes()
	p := g.Partition()
	st := &postate{
		prog: prog,
		pre:  pre,
		g:    g,
		p:    p,
		s:    s,
		opt:  opt,
		res: &Result{
			Acc:     make([]octsem.OMem, n),
			Out:     make([]octsem.OMem, n),
			Reached: make([]bool, g.PointCount),
		},
		counts: make([]int32, n),
		mu:     make([]sync.Mutex, p.NumComps()),
		seeds:  make([][]int32, p.NumComps()),
	}
	st.schedSuccs, st.schedPreds = compsched.BuildSched(prog, pre, p)
	if opt.Timeout > 0 {
		st.deadline = time.Now().Add(opt.Timeout)
	}

	root := prog.ProcByID(prog.Main)
	st.rootEnt = root.Entry
	st.applyMarks([]ir.PointID{root.Entry})

	workers := opt.Workers
	if workers > p.NumComps() {
		workers = p.NumComps()
	}
	pool := make([]*opworker, workers)
	for i := range pool {
		pool[i] = &opworker{st: st, wl: worklist.New(n, g.Prio)}
	}

	if workers == 1 {
		// Single worker: the canonical sequential wave loop (min-heap over
		// seeded components in ascending — topological — order; see the
		// interval driver's runRoundSeq for the argument).
		for st.anySeeds() && !st.timedOut.Load() && !st.aborted.Load() {
			st.res.Rounds++
			st.runRoundSeq(pool[0])
			sort.Slice(st.deferred, func(i, j int) bool { return st.deferred[i] < st.deferred[j] })
			st.applyMarks(st.deferred)
			st.deferred = st.deferred[:0]
		}
	} else {
		st.res.Rounds = compsched.Run(compsched.Config{
			NumComps: p.NumComps(),
			Succs:    st.schedSuccs,
			Preds:    st.schedPreds,
			Defers:   compsched.Deferring(prog, pre, p),
			Workers:  workers,
			Run: func(worker int, c int32) {
				if !st.aborted.Load() {
					pool[worker].runComponent(c)
				}
			},
			// A component with an empty seed bucket fires nothing; the
			// engine completes such runs inline. Safe without st.mu[c]: the
			// engine only asks once every run that could still push into c
			// has committed.
			Empty:   func(c int32) bool { return len(st.seeds[c]) == 0 },
			Barrier: st.barrier,
			OnPanic: func(v any, stack []byte) {
				st.aborted.Store(true)
				st.panicsMu.Lock()
				st.panics = append(st.panics, par.WorkerPanic{Value: v, Stack: stack})
				st.panicsMu.Unlock()
			},
		}, st.seededComps())
	}
	if st.aborted.Load() {
		panic(&par.PanicError{Panics: st.panics})
	}

	st.res.Steps = int(st.steps.Load())
	st.res.Joins = int(st.joins.Load())
	st.res.Widenings = int(st.widenings.Load())
	st.res.TimedOut = st.timedOut.Load()
	opt.Metrics.Add(metrics.CtrPops, int64(st.res.Steps))
	opt.Metrics.Add(metrics.CtrJoins, int64(st.res.Joins))
	opt.Metrics.Add(metrics.CtrWidenings, int64(st.res.Widenings))
	opt.Metrics.Add(metrics.CtrRounds, int64(st.res.Rounds))
	return st.res
}

// postate is the shared state of one parallel octagon run.
type postate struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	p    *dug.Partition
	s    *octsem.Sem
	opt  Options
	res  *Result

	// counts mirrors solver.counts: one widening counter per node, owned by
	// the node's component.
	counts  []int32
	rootEnt ir.PointID

	// mu[c] guards seeds[c] and the cross-component writes (Acc joins, reach
	// marks) into component c, all of which happen strictly before c runs.
	mu    []sync.Mutex
	seeds [][]int32

	deferredMu sync.Mutex
	deferred   []ir.PointID

	schedSuccs [][]int32
	schedPreds [][]int32

	pendingSeq []bool

	steps     atomic.Int64
	joins     atomic.Int64
	widenings atomic.Int64
	timedOut  atomic.Bool
	deadline  time.Time

	aborted  atomic.Bool
	panicsMu sync.Mutex
	panics   []par.WorkerPanic
}

// barrier mirrors the interval driver's wave barrier: apply the deferred
// reach marks in sorted order, gated per point on the point's component
// having committed, and return the seeded components.
func (st *postate) barrier(wait func(c int32)) []int32 {
	if st.aborted.Load() {
		return nil
	}
	st.deferredMu.Lock()
	queue := st.deferred
	st.deferred = nil
	st.deferredMu.Unlock()
	if len(queue) == 0 {
		return nil
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	seeded := st.applyMarksWait(queue, wait)
	if st.timedOut.Load() {
		return nil
	}
	return seeded
}

// applyMarks seeds the given points and closes reachability transitively
// through non-assume points (octsem.Transfer fails only on refuted assumes,
// so the closure is exact — the same argument as the interval driver's).
func (st *postate) applyMarks(queue []ir.PointID) {
	st.applyMarksWait(queue, nil)
}

func (st *postate) applyMarksWait(queue []ir.PointID, wait func(c int32)) []int32 {
	var seededComps []int32
	q := append([]ir.PointID(nil), queue...)
	push := func(t ir.PointID) {
		if !st.res.Reached[t] {
			q = append(q, t)
		}
	}
	for i := 0; i < len(q); i++ {
		t := q[i]
		c := st.p.Comp[t]
		if wait != nil {
			wait(c)
		}
		if st.res.Reached[t] {
			continue
		}
		st.res.Reached[t] = true
		if len(st.seeds[c]) == 0 {
			seededComps = append(seededComps, c)
		}
		st.seeds[c] = append(st.seeds[c], int32(t))
		pt := st.prog.Point(t)
		switch pt.Cmd.(type) {
		case ir.Assume:
			// Gated on values; propagates (or not) when it fires.
		case ir.Call:
			callees := st.pre.CalleesOf(pt.ID)
			if len(callees) == 0 {
				for _, s := range pt.Succs {
					push(s)
				}
				break
			}
			for _, p := range callees {
				push(st.prog.ProcByID(p).Entry)
			}
		case ir.Exit:
			for _, rs := range st.pre.RetSites[pt.Proc] {
				push(rs)
			}
		default:
			for _, s := range pt.Succs {
				push(s)
			}
		}
	}
	return seededComps
}

func (st *postate) anySeeds() bool {
	for _, s := range st.seeds {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

func (st *postate) seededComps() []int32 {
	var out []int32
	for c := range st.seeds {
		if len(st.seeds[c]) > 0 {
			out = append(out, int32(c))
		}
	}
	return out
}

// runRoundSeq is the one-worker round, identical in structure to the
// interval driver's.
func (st *postate) runRoundSeq(w *opworker) {
	if st.pendingSeq == nil {
		st.pendingSeq = make([]bool, st.p.NumComps())
	}
	pending := st.pendingSeq
	var heap []int32
	push := func(c int32) {
		if pending[c] {
			return
		}
		pending[c] = true
		heap = append(heap, c)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() int32 {
		c := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && heap[l] < heap[m] {
				m = l
			}
			if r < len(heap) && heap[r] < heap[m] {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		pending[c] = false
		return c
	}
	for c := range st.seeds {
		if len(st.seeds[c]) > 0 {
			push(int32(c))
		}
	}
	for len(heap) > 0 {
		c := pop()
		w.runComponent(c)
		for _, s := range st.schedSuccs[c] {
			if len(st.seeds[s]) > 0 {
				push(s)
			}
		}
	}
}

// opworker is one octagon solver worker: a reusable deduplicating priority
// worklist plus scratch for the staged pack-closure fan-out.
type opworker struct {
	st   *postate
	wl   *worklist.Worklist
	comp int32
	// steps/joins/widenings accumulate per component run and flush at
	// completion so the hot path never touches shared state.
	joins     int64
	widenings int64

	closures []stagedClosure
}

// stagedClosure is one definition's precomputed join/widen result.
type stagedClosure struct {
	joined *oct.Oct
	skip   bool
	widen  bool // effective widening (widened != joined)
}

// parClosureMin is the definition count at which a node's join/widen
// closures are staged through par.For instead of computed inline. Most nodes
// define a pack or two; call and entry nodes binding many formals are where
// the O(d³) closure batches pile up.
const parClosureMin = 8

// runComponent mirrors the interval driver's runComponent with the octagon
// budget stride (64, matching the sequential octagon solver).
func (w *opworker) runComponent(c int32) {
	st := w.st
	w.comp = c
	st.mu[c].Lock()
	seeds := st.seeds[c]
	st.seeds[c] = nil
	st.mu[c].Unlock()
	if len(seeds) == 0 || st.timedOut.Load() {
		return
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		w.wl.Add(int(s))
	}
	local := 0
	for {
		id, ok := w.wl.Take()
		if !ok {
			break
		}
		if st.timedOut.Load() {
			continue // drain so the worklist is clean for the next component
		}
		local++
		if st.opt.MaxSteps > 0 && st.steps.Add(1) > int64(st.opt.MaxSteps) {
			st.timedOut.Store(true)
			continue
		}
		if (st.opt.Timeout > 0 || st.opt.Budget != nil) && local%64 == 0 {
			if st.opt.Timeout > 0 && time.Now().After(st.deadline) {
				st.timedOut.Store(true)
				continue
			}
			if st.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
				st.timedOut.Store(true)
				continue
			}
		}
		w.fire(dug.NodeID(id))
	}
	if st.opt.MaxSteps <= 0 {
		st.steps.Add(int64(local))
	}
	if w.joins > 0 {
		st.joins.Add(w.joins)
		w.joins = 0
	}
	if w.widenings > 0 {
		st.widenings.Add(w.widenings)
		w.widenings = 0
	}
}

// fire mirrors the sequential solver's fire with component-aware
// propagation.
func (w *opworker) fire(n dug.NodeID) {
	st := w.st
	if st.g.IsPhi(n) {
		w.pushOuts(n, st.res.Acc[n])
		return
	}
	pt := st.prog.Point(ir.PointID(n))
	if !st.res.Reached[pt.ID] {
		return
	}
	acc := st.res.Acc[n]
	if pt.ID == st.rootEnt {
		// The root entry injects the arbitrary initial state.
		w.propagateReach(pt)
		w.pushOuts(n, st.s.TopState())
		return
	}
	var out octsem.OMem
	ok := true
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		out = acc
		for _, p := range st.pre.CalleesOf(pt.ID) {
			out = st.s.BindFormals(pt, st.prog.ProcByID(p), out)
		}
	} else {
		out, ok = st.s.Transfer(pt, acc)
	}
	if !ok {
		return
	}
	w.propagateReach(pt)
	w.pushOuts(n, out)
}

// mark mirrors the interval driver's mark: local worklist inside the running
// component, locked seed in a scheduling successor, deferred otherwise.
func (w *opworker) mark(t ir.PointID) {
	st := w.st
	ct := st.p.Comp[t]
	switch {
	case ct == w.comp:
		if !st.res.Reached[t] {
			st.res.Reached[t] = true
			w.wl.Add(int(t))
		}
	case compsched.HasSucc(st.schedSuccs, w.comp, ct):
		st.mu[ct].Lock()
		if !st.res.Reached[t] {
			st.res.Reached[t] = true
			st.seeds[ct] = append(st.seeds[ct], int32(t))
		}
		st.mu[ct].Unlock()
	default:
		st.deferredMu.Lock()
		st.deferred = append(st.deferred, t)
		st.deferredMu.Unlock()
	}
}

func (w *opworker) propagateReach(pt *ir.Point) {
	st := w.st
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := st.pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				w.mark(s)
			}
			return
		}
		for _, p := range callees {
			w.mark(st.prog.ProcByID(p).Entry)
		}
	case ir.Exit:
		for _, rs := range st.pre.RetSites[pt.Proc] {
			w.mark(rs)
		}
	default:
		for _, s := range pt.Succs {
			w.mark(s)
		}
	}
}

// pushOuts mirrors the sequential solver's pushOuts (per-node widening
// counter, nil-pack skips, explicit Acc joins), with two component-aware
// changes: cross-component pushes land under the target's lock, and nodes
// defining at least parClosureMin packs stage their join/widen closures
// through par.For first. Staging is counter-neutral: each definition's
// closure depends only on the stored output at its own pack (Set on one pack
// never changes Get on another), so precomputing them in parallel and
// applying in definition order makes decisions bit-identical to the inline
// loop.
func (w *opworker) pushOuts(n dug.NodeID, m octsem.OMem) {
	st := w.st
	forceWiden := int(st.counts[n]) > st.opt.WidenThreshold
	if !forceWiden && !st.g.IsPhi(n) && int(st.counts[n]) > st.opt.EntryWidenDelay {
		if _, isEntry := st.prog.Point(ir.PointID(n)).Cmd.(ir.Entry); isEntry {
			forceWiden = true
		}
	}
	defs := st.g.Defs[n]

	var staged []stagedClosure
	if len(defs) >= parClosureMin && st.opt.Workers > 1 {
		if cap(w.closures) < len(defs) {
			w.closures = make([]stagedClosure, len(defs))
		}
		staged = w.closures[:len(defs)]
		par.For(len(defs), st.opt.Workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				staged[i] = w.closeDef(n, defs[i], m, forceWiden)
			}
		})
	}

	changed := false
	cur := st.g.Out(n)
	for i, l := range defs {
		var sc stagedClosure
		if staged != nil {
			sc = staged[i]
		} else {
			sc = w.closeDef(n, l, m, forceWiden)
		}
		if sc.skip {
			continue
		}
		if sc.widen {
			w.widenings++
		}
		joined := sc.joined
		changed = true
		w.joins++
		st.res.Out[n] = st.res.Out[n].Set(l, joined)
		for _, succ := range cur.Seek(l) {
			cs := st.p.Comp[succ]
			if cs == w.comp {
				sacc := st.res.Acc[succ]
				if next, ok := deliver(sacc.Get(l), joined); ok {
					st.res.Acc[succ] = sacc.Set(l, next)
					w.wl.Add(int(succ))
				}
				continue
			}
			st.mu[cs].Lock()
			sacc := st.res.Acc[succ]
			if next, ok := deliver(sacc.Get(l), joined); ok {
				st.res.Acc[succ] = sacc.Set(l, next)
				st.seeds[cs] = append(st.seeds[cs], int32(succ))
			}
			st.mu[cs].Unlock()
		}
	}
	if changed {
		st.counts[n]++
	}
}

// closeDef computes one definition's join/widen closure against the stored
// output, without mutating anything — the caller applies the result.
func (w *opworker) closeDef(n dug.NodeID, l pack.ID, m octsem.OMem, forceWiden bool) stagedClosure {
	st := w.st
	nv := m.Get(l)
	if nv == nil {
		return stagedClosure{skip: true}
	}
	old := st.res.Out[n].Get(l)
	joined := nv
	if old != nil {
		var jch bool
		joined, jch = old.JoinChanged(nv)
		if !jch {
			return stagedClosure{skip: true}
		}
		if st.g.Widen[n] || forceWiden {
			wv := old.Widen(joined)
			widen := !wv.Eq(joined)
			return stagedClosure{joined: wv, widen: widen}
		}
	} else if nv.IsBottom() {
		return stagedClosure{skip: true}
	}
	return stagedClosure{joined: joined}
}

// Incremental sparse solver: a trace-replay memoization layer over the
// canonical sequential component schedule. The driver mirrors
// AnalyzeComponents — same scheduling DAG, same waves, same worklist loop —
// but brackets every component run with a memo protocol:
//
//	key(c, run k) = H(chain_{k-1}(c) ∥ inputHash_k(c)),  chain_0 = structHash(c)
//
// On a hit the recorded transcript is replayed: the run's internal state
// deltas (final Out/Acc values, widening counters) are applied directly and
// its external effects (reachability marks, cross-component value pushes) are
// re-emitted against the *current* program and graph. On a miss the component
// runs live, instrumented, and the transcript is recorded under the key.
//
// Exactness is by induction over the deterministic schedule. A component
// run is a pure function of (internal structure, internal state, incoming
// effects): the structure hash pins the first, the chain pins the second (it
// hashes the entire input history, and the sequential schedule makes state a
// function of history), and the input hash pins the third. Replay applies
// only final values where the live run pushed ascending chains v1 ⊑ … ⊑ vk,
// which downstream cannot distinguish: the LessEq-gated join accumulates to
// old ⊔ vk either way, and the target is seeded iff vk ⋢ old in both modes.
// Reachability flips are replayed from the fired-point set with the marking
// rules re-run against the current graph, so mark targets are recomputed,
// never trusted from the record.
//
// The replay path credits the recorded Steps/Joins/Widenings, so every solver
// counter — and therefore the metrics report — is bit-identical to a cold
// solve of the same program (the differential tests enforce this).
package sparse

import (
	"fmt"
	"sort"
	"strconv"

	"sparrow/internal/dug"
	"sparrow/internal/incr"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/solver/compsched"
	"sparrow/internal/worklist"
)

// IncrStats reports the cache effectiveness of one incremental solve.
type IncrStats struct {
	// Hits counts component runs satisfied by replaying a transcript.
	Hits int
	// Misses counts component runs executed live (and recorded).
	Misses int
	// Resolved counts distinct components that ran live at least once — the
	// "re-solved" components an edit invalidated (every component on a cold
	// cache).
	Resolved int
	// NumComps is the component count of the scheduling DAG.
	NumComps int
}

// AnalyzeIncremental runs the sparse interval analysis through the memo
// cache: components whose key hits the cache replay their recorded
// transcript, everything else runs live and is recorded. The result is
// bit-identical to AnalyzeComponents on the same program — with an empty cache
// it IS the same computation, instrumented.
//
// Only the plain ascending solve is supported: narrowing, timeouts, step
// budgets and entry marks (the uninit checker's Indet gating) all make a
// run's behavior depend on state outside the hashed inputs, so they are
// rejected rather than silently mis-cached.
func AnalyzeIncremental(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options, cache *incr.Cache) (*Result, IncrStats, error) {
	if opt.Narrow != 0 {
		return nil, IncrStats{}, fmt.Errorf("incr: narrowing is not supported incrementally (descending sweeps are whole-graph)")
	}
	if opt.Timeout != 0 || opt.MaxSteps != 0 {
		return nil, IncrStats{}, fmt.Errorf("incr: timeouts and step budgets are not supported incrementally (truncation is schedule-dependent)")
	}
	if opt.EntryMarks != nil {
		return nil, IncrStats{}, fmt.Errorf("incr: entry marks (uninit checking) are not supported incrementally (Indet evaluation is global)")
	}
	if opt.WidenThreshold == 0 {
		opt.WidenThreshold = defaultWidenThreshold
	}
	if opt.EntryWidenDelay == 0 {
		opt.EntryWidenDelay = defaultEntryWidenDelay
	}
	if cache.WidenThreshold == 0 && cache.EntryWidenDelay == 0 && cache.Len() == 0 {
		cache.WidenThreshold = opt.WidenThreshold
		cache.EntryWidenDelay = opt.EntryWidenDelay
	}
	if cache.WidenThreshold != opt.WidenThreshold || cache.EntryWidenDelay != opt.EntryWidenDelay {
		return nil, IncrStats{}, fmt.Errorf("incr: snapshot was recorded with widening config (%d,%d), run uses (%d,%d): re-solve cold",
			cache.WidenThreshold, cache.EntryWidenDelay, opt.WidenThreshold, opt.EntryWidenDelay)
	}

	n := g.NumNodes()
	p := g.Partition()
	namer := ir.NewStableNamer(prog)
	cache.Bind(prog, namer)
	d := &idriver{
		prog:  prog,
		pre:   pre,
		g:     g,
		p:     p,
		opt:   opt,
		cache: cache,
		namer: namer,
		s:     &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle},
		wl:    worklist.New(n, g.Prio),
		res: &Result{
			Acc:     make([]mem.Mem, n),
			Out:     make([]mem.Mem, n),
			Reached: make([]bool, g.PointCount),
		},
		cbase:        defOffsets(g),
		chain:        incr.StructHashes(prog, pre, g, namer),
		seeds:        make([][]int32, p.NumComps()),
		pendingReach: make([][]ir.PointID, p.NumComps()),
		pendingIn:    make([][]extIn, p.NumComps()),
		liveRun:      make([]bool, p.NumComps()),
	}
	d.counts = make([]int32, d.cbase[n])
	d.sched = compsched.BuildSched(prog, pre, p)

	d.applyMarks([]ir.PointID{prog.ProcByID(prog.Main).Entry})
	hasWork := func(c int32) bool { return len(d.seeds[c]) > 0 }
	for d.anySeeds() {
		d.res.Rounds++
		d.sched.Wave(hasWork, d.runComponent)
		sort.Slice(d.deferred, func(i, j int) bool { return d.deferred[i] < d.deferred[j] })
		d.applyMarks(d.deferred)
		d.deferred = d.deferred[:0]
	}
	d.res.Steps = int(d.steps)
	d.res.Joins = int(d.joins)
	d.res.Widenings = int(d.widenings)
	flushMetrics(opt.Metrics, d.res)
	stats := IncrStats{Hits: d.hits, Misses: d.misses, NumComps: p.NumComps()}
	for _, live := range d.liveRun {
		if live {
			stats.Resolved++
		}
	}
	return d.res, stats, nil
}

// extIn is one externally pushed (node, location) input, pending until the
// target component's next run hashes it.
type extIn struct {
	n dug.NodeID
	l ir.LocID
}

// idriver is the single-threaded record/replay driver. Its live execution
// path is the component solver's (csolver), plus the pending input
// bookkeeping and the transcript recorder.
type idriver struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	p    *dug.Partition
	opt  Options
	res  *Result
	s    *sem.Sem
	wl   *worklist.Worklist

	cache *incr.Cache
	namer *ir.StableNamer

	counts []int32
	cbase  []int32

	seeds    [][]int32
	deferred []ir.PointID

	sched *compsched.Sched

	// chain[c] is the component's hash chain (see package comment); advanced
	// on every run, hit or miss.
	chain []string
	// pendingReach[c] / pendingIn[c] buffer the external effects that arrived
	// since c last ran; they are the raw material of the next input hash.
	pendingReach [][]ir.PointID
	pendingIn    [][]extIn

	// comp/rec are the live-run context: the running component and its
	// transcript recorder (nil during replay and between runs).
	comp int32
	rec  *recBuf

	steps, joins, widenings int64
	hits, misses            int
	liveRun                 []bool
}

// applyMarks mirrors csolver.applyMarks: flips arriving outside any component
// run are external inputs of the flipped point's component, so each one is
// also appended to that component's pending reach list.
func (d *idriver) applyMarks(queue []ir.PointID) {
	q := append([]ir.PointID(nil), queue...)
	push := func(t ir.PointID) {
		if !d.res.Reached[t] {
			q = append(q, t)
		}
	}
	for i := 0; i < len(q); i++ {
		t := q[i]
		if d.res.Reached[t] {
			continue
		}
		d.res.Reached[t] = true
		c := d.p.Comp[t]
		d.seeds[c] = append(d.seeds[c], int32(t))
		d.pendingReach[c] = append(d.pendingReach[c], t)
		pt := d.prog.Point(t)
		if _, isAssume := pt.Cmd.(ir.Assume); !isAssume {
			compsched.ReachTargets(d.prog, d.pre, pt, push)
		}
	}
}

func (d *idriver) anySeeds() bool {
	for _, s := range d.seeds {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// runComponent is the memo protocol around one component run: hash the
// pending inputs, advance the chain, and either replay the cached transcript
// or run live and record one.
func (d *idriver) runComponent(c int32) {
	// Checkpoint per component: a breach aborts via rt.Abort before the
	// component's transcript is recorded, so the cache never holds a
	// truncated run (incremental solves never degrade — core turns the
	// abort into a BudgetError directly).
	d.opt.Budget.Checkpoint(rt.PhaseIncr)
	seeds := d.seeds[c]
	d.seeds[c] = nil
	if len(seeds) == 0 {
		return
	}
	input := d.inputHash(c)
	d.pendingReach[c] = d.pendingReach[c][:0]
	d.pendingIn[c] = d.pendingIn[c][:0]
	key := incr.ChainNext(d.chain[c], input)
	d.chain[c] = key
	if run, ok := d.cache.Lookup(key); ok && d.replay(c, run) {
		d.hits++
		return
	}
	d.misses++
	d.liveRun[c] = true
	d.runLive(c, seeds, key)
}

// inputHash digests the pending external effects of component c: the flipped
// points (by local index) and the externally pushed (node, location) entries
// with their current accumulated values. Both lists are sorted and
// deduplicated under version-portable orders (local indices and stable
// location keys), so the hash is independent of arrival order — and the
// LessEq gate on the pushing side already dropped no-op pushes identically
// in record and replay mode.
func (d *idriver) inputHash(c int32) string {
	reach := make([]int, 0, len(d.pendingReach[c]))
	for _, t := range d.pendingReach[c] {
		reach = append(reach, int(d.p.LocalIdx[t]))
	}
	sort.Ints(reach)
	parts := make([]string, 0, 2+len(reach)+3*len(d.pendingIn[c]))
	parts = append(parts, "reach")
	for i, li := range reach {
		if i > 0 && li == reach[i-1] {
			continue
		}
		parts = append(parts, strconv.Itoa(li))
	}
	type inEntry struct {
		li  int32
		key string
		n   dug.NodeID
		l   ir.LocID
	}
	ins := make([]inEntry, 0, len(d.pendingIn[c]))
	for _, e := range d.pendingIn[c] {
		ins = append(ins, inEntry{li: d.p.LocalIdx[e.n], key: d.namer.LocKey(e.l), n: e.n, l: e.l})
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].li != ins[j].li {
			return ins[i].li < ins[j].li
		}
		return ins[i].key < ins[j].key
	})
	parts = append(parts, "in")
	for i, e := range ins {
		if i > 0 && e.li == ins[i-1].li && e.key == ins[i-1].key {
			continue
		}
		parts = append(parts, strconv.Itoa(int(e.li)), e.key, incr.ValKey(d.res.Acc[e.n].Get(e.l), d.namer))
	}
	return incr.HashParts(parts...)
}

// recBuf accumulates one live run's transcript: which points fired, which
// (node, location) outputs and internal inputs changed, which widening slots
// moved, and the work counters. Sets, not logs — only final values are
// recorded.
type recBuf struct {
	fired      map[int32]struct{}
	outChanged map[defSlot]struct{}
	accChanged map[accSlot]struct{}
	cntChanged map[defSlot]struct{}
	joins      int64
	widenings  int64
}

type defSlot struct {
	n dug.NodeID
	i int32
}

type accSlot struct {
	n dug.NodeID
	l ir.LocID
}

// runLive executes one component's worklist loop with the recorder
// attached, then stores the transcript under key.
func (d *idriver) runLive(c int32, seeds []int32, key string) {
	d.comp = c
	b := &recBuf{
		fired:      map[int32]struct{}{},
		outChanged: map[defSlot]struct{}{},
		accChanged: map[accSlot]struct{}{},
		cntChanged: map[defSlot]struct{}{},
	}
	d.rec = b
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		d.wl.Add(int(s))
	}
	local := 0
	for {
		id, ok := d.wl.Take()
		if !ok {
			break
		}
		local++
		if d.opt.Budget != nil && local%256 == 0 {
			d.opt.Budget.Checkpoint(rt.PhaseIncr)
		}
		d.fire(dug.NodeID(id))
	}
	d.rec = nil
	d.steps += int64(local)
	d.joins += b.joins
	d.widenings += b.widenings

	run := &incr.Run{Steps: int64(local), Joins: b.joins, Widenings: b.widenings}
	run.Fired = make([]int32, 0, len(b.fired))
	for li := range b.fired {
		run.Fired = append(run.Fired, li)
	}
	sort.Slice(run.Fired, func(i, j int) bool { return run.Fired[i] < run.Fired[j] })
	for _, slot := range sortedDefSlots(d.p, b.outChanged) {
		l := d.g.Defs[slot.n][slot.i]
		run.Out = append(run.Out, incr.Delta{
			Node: d.p.LocalIdx[slot.n],
			Loc:  d.cache.LocIdx(l),
			Val:  d.cache.EncodeVal(d.res.Out[slot.n].Get(l)),
		})
	}
	accs := make([]accSlot, 0, len(b.accChanged))
	for s := range b.accChanged {
		accs = append(accs, s)
	}
	sort.Slice(accs, func(i, j int) bool {
		if d.p.LocalIdx[accs[i].n] != d.p.LocalIdx[accs[j].n] {
			return d.p.LocalIdx[accs[i].n] < d.p.LocalIdx[accs[j].n]
		}
		return accs[i].l < accs[j].l
	})
	for _, s := range accs {
		run.Acc = append(run.Acc, incr.Delta{
			Node: d.p.LocalIdx[s.n],
			Loc:  d.cache.LocIdx(s.l),
			Val:  d.cache.EncodeVal(d.res.Acc[s.n].Get(s.l)),
		})
	}
	for _, slot := range sortedDefSlots(d.p, b.cntChanged) {
		run.Counts = append(run.Counts, incr.Count{
			Node: d.p.LocalIdx[slot.n],
			Def:  slot.i,
			Cnt:  d.counts[d.cbase[slot.n]+slot.i],
		})
	}
	d.cache.Store(key, run)
}

// sortedDefSlots orders a (node, def-index) set by (local index, def index) —
// a canonical, version-portable order (def indices follow the Defs key
// sequence, which the structure hash pins).
func sortedDefSlots(p *dug.Partition, set map[defSlot]struct{}) []defSlot {
	out := make([]defSlot, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if p.LocalIdx[out[i].n] != p.LocalIdx[out[j].n] {
			return p.LocalIdx[out[i].n] < p.LocalIdx[out[j].n]
		}
		return out[i].i < out[j].i
	})
	return out
}

// fire mirrors csolver.fire; a successful firing is recorded so replay can
// re-run the reach propagation.
func (d *idriver) fire(n dug.NodeID) {
	if d.g.IsPhi(n) {
		d.pushOuts(n, d.res.Acc[n])
		return
	}
	pt := d.prog.Point(ir.PointID(n))
	if !d.res.Reached[pt.ID] {
		return
	}
	acc := d.res.Acc[n]
	var out mem.Mem
	ok := true
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		out = acc
		for _, cp := range d.pre.CalleesOf(pt.ID) {
			out = d.s.BindFormals(pt, d.prog.ProcByID(cp), out)
		}
	} else {
		out, ok = d.s.Transfer(pt, acc)
	}
	if !ok {
		return
	}
	d.rec.fired[d.p.LocalIdx[n]] = struct{}{}
	compsched.ReachTargets(d.prog, d.pre, pt, d.mark)
	d.pushOuts(n, out)
}

// mark mirrors csolver.mark; flips landing in a scheduling successor are that
// component's external inputs and join its pending reach list.
func (d *idriver) mark(t ir.PointID) {
	ct := d.p.Comp[t]
	switch {
	case ct == d.comp:
		if !d.res.Reached[t] {
			d.res.Reached[t] = true
			d.wl.Add(int(t))
		}
	case d.sched.HasSucc(d.comp, ct):
		if !d.res.Reached[t] {
			d.res.Reached[t] = true
			d.seeds[ct] = append(d.seeds[ct], int32(t))
			d.pendingReach[ct] = append(d.pendingReach[ct], t)
		}
	default:
		d.deferred = append(d.deferred, t)
	}
}

// pushOuts mirrors csolver.pushOuts, recording the changed slots and the
// external pushes' targets.
func (d *idriver) pushOuts(n dug.NodeID, m mem.Mem) {
	isEntry := false
	if !d.g.IsPhi(n) {
		_, isEntry = d.prog.Point(ir.PointID(n)).Cmd.(ir.Entry)
	}
	base := d.cbase[n]
	cur := d.g.Out(n)
	for i, l := range d.g.Defs[n] {
		nv := m.Get(l)
		old := d.res.Out[n].Get(l)
		joined, jch := old.JoinChanged(nv)
		if !jch {
			continue
		}
		cnt := d.counts[base+int32(i)]
		d.counts[base+int32(i)] = cnt + 1
		d.rec.joins++
		d.rec.cntChanged[defSlot{n, int32(i)}] = struct{}{}
		forceWiden := int(cnt) > d.opt.WidenThreshold ||
			(isEntry && int(cnt) > d.opt.EntryWidenDelay)
		if d.g.Widen[n] || forceWiden {
			wv, wch := old.WidenChanged(joined)
			if wch {
				d.rec.widenings++
			}
			joined = wv
		}
		d.res.Out[n] = d.res.Out[n].Set(l, joined)
		d.rec.outChanged[defSlot{n, int32(i)}] = struct{}{}
		for _, succ := range cur.Seek(l) {
			cs := d.p.Comp[succ]
			if cs == d.comp {
				sacc := d.res.Acc[succ]
				if joined.LessEq(sacc.Get(l)) {
					continue
				}
				d.res.Acc[succ] = sacc.WeakSet(l, joined)
				d.rec.accChanged[accSlot{succ, l}] = struct{}{}
				d.wl.Add(int(succ))
				continue
			}
			sacc := d.res.Acc[succ]
			if !joined.LessEq(sacc.Get(l)) {
				d.res.Acc[succ] = sacc.WeakSet(l, joined)
				d.seeds[cs] = append(d.seeds[cs], int32(succ))
				d.pendingIn[cs] = append(d.pendingIn[cs], extIn{n: succ, l: l})
			}
		}
	}
}

// replay applies a recorded transcript. Decoding is all-or-nothing: every
// entry is resolved against the current program before any state mutates, so
// a failed decode (an entity the edit removed, a malformed value) leaves the
// state untouched and the caller falls back to a live run. Returns whether
// the transcript was applied.
func (d *idriver) replay(c int32, run *incr.Run) bool {
	nodes := d.p.Nodes[c]
	type delta struct {
		n dug.NodeID
		l ir.LocID
		v val.Val
	}
	decode := func(ds []incr.Delta) ([]delta, bool) {
		out := make([]delta, len(ds))
		for i, e := range ds {
			if int(e.Node) >= len(nodes) {
				return nil, false
			}
			l, ok := d.cache.LocID(e.Loc)
			if !ok {
				return nil, false
			}
			v, ok := d.cache.DecodeVal(e.Val)
			if !ok {
				return nil, false
			}
			out[i] = delta{n: nodes[e.Node], l: l, v: v}
		}
		return out, true
	}
	outs, ok := decode(run.Out)
	if !ok {
		return false
	}
	accs, ok := decode(run.Acc)
	if !ok {
		return false
	}
	for _, cn := range run.Counts {
		if int(cn.Node) >= len(nodes) || int(cn.Def) >= len(d.g.Defs[nodes[cn.Node]]) {
			return false
		}
	}
	for _, li := range run.Fired {
		if int(li) >= len(nodes) {
			return false
		}
	}

	for _, cn := range run.Counts {
		n := nodes[cn.Node]
		d.counts[d.cbase[n]+cn.Def] = cn.Cnt
	}
	for _, e := range accs {
		d.res.Acc[e.n] = d.res.Acc[e.n].Set(e.l, e.v)
	}
	// Outputs: store the final value and re-emit the external pushes against
	// the current graph (internal targets are covered by the Acc deltas).
	for _, e := range outs {
		d.res.Out[e.n] = d.res.Out[e.n].Set(e.l, e.v)
		cur := d.g.Out(e.n)
		for _, succ := range cur.Seek(e.l) {
			cs := d.p.Comp[succ]
			if cs == c {
				continue
			}
			sacc := d.res.Acc[succ]
			if e.v.LessEq(sacc.Get(e.l)) {
				continue
			}
			d.res.Acc[succ] = sacc.WeakSet(e.l, e.v)
			d.seeds[cs] = append(d.seeds[cs], int32(succ))
			d.pendingIn[cs] = append(d.pendingIn[cs], extIn{n: succ, l: e.l})
		}
	}
	// Reachability: re-run the marking rules of every fired point. Marks are
	// monotone flips and deferred appends are set-like at the barrier, so
	// replaying each fired point once reaches the live run's final mark set.
	for _, li := range run.Fired {
		n := nodes[li]
		if d.g.IsPhi(n) {
			continue
		}
		d.replayReach(c, d.prog.Point(ir.PointID(n)))
	}
	d.steps += run.Steps
	d.joins += run.Joins
	d.widenings += run.Widenings
	return true
}

// replayReach is fire's reach propagation with the replay marking rule: internal flips
// need no worklist (the whole run is replayed), external ones behave exactly
// like live marks.
func (d *idriver) replayReach(c int32, pt *ir.Point) {
	mark := func(t ir.PointID) {
		ct := d.p.Comp[t]
		switch {
		case ct == c:
			d.res.Reached[t] = true
		case d.sched.HasSucc(c, ct):
			if !d.res.Reached[t] {
				d.res.Reached[t] = true
				d.seeds[ct] = append(d.seeds[ct], int32(t))
				d.pendingReach[ct] = append(d.pendingReach[ct], t)
			}
		default:
			d.deferred = append(d.deferred, t)
		}
	}
	compsched.ReachTargets(d.prog, d.pre, pt, mark)
}

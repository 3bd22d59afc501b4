// Incremental sparse solver: a trace-replay memoization layer over the
// canonical sequential component schedule. It is the AnalyzeComponents
// solver — same driver, scheduling DAG, waves and worklist loop — with a
// memo that brackets every component run with a protocol:
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
	"slices"
	"sort"
	"strconv"

	"sparrow/internal/dug"
	"sparrow/internal/incr"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/val"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/solver/compsched"
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

	p := g.Partition()
	namer := ir.NewStableNamer(prog)
	cache.Bind(prog, namer)
	m := &memo{
		cache:        cache,
		namer:        namer,
		p:            p,
		chain:        incr.StructHashes(prog, pre, g, namer),
		pendingReach: make([][]ir.PointID, p.NumComps()),
		pendingIn:    make([][]slotRef, p.NumComps()),
		liveRun:      make([]bool, p.NumComps()),
	}
	st := newStore(prog, pre, g, opt, m)
	st.d.Components()
	res := st.finish()
	stats := IncrStats{Hits: m.hits, Misses: m.misses, NumComps: p.NumComps()}
	for _, live := range m.liveRun {
		if live {
			stats.Resolved++
		}
	}
	return res, stats, nil
}

// slotRef is one store slot (Out or Acc) of node n.
type slotRef struct {
	n    dug.NodeID
	slot int32
}

// memo is the incremental solver's record/replay state.
type memo struct {
	cache *incr.Cache
	namer *ir.StableNamer
	p     *dug.Partition

	// chain[c] is the component's hash chain (see package comment); advanced
	// on every run, hit or miss.
	chain []string
	// pendingReach[c] / pendingIn[c] buffer the external effects that arrived
	// since c last ran (flipped points, pushed Acc slots); they are the raw
	// material of the next input hash.
	pendingReach [][]ir.PointID
	pendingIn    [][]slotRef

	hits, misses int
	liveRun      []bool
}

// attach hooks the memo into st's driver: seeded points become pending
// inputs, and every component runs through memoRun.
func (m *memo) attach(st *store) {
	st.d.OnSeed = func(c int32, t ir.PointID) {
		m.pendingReach[c] = append(m.pendingReach[c], t)
	}
	st.d.RunComp = st.memoRun
}

// memoRun is the memo protocol around one component run: hash the pending
// inputs, advance the chain, and either replay the cached transcript or run
// live and record one.
func (st *store) memoRun(c int32, seeds []int32) {
	// Checkpoint per component: a breach aborts via rt.Abort before the
	// component's transcript is recorded, so the cache never holds a
	// truncated run (incremental solves never degrade — core turns the
	// abort into a BudgetError directly).
	st.opt.Budget.Checkpoint(rt.PhaseIncr)
	m := st.memo
	if len(seeds) == 0 {
		return
	}
	input := st.inputHash(c)
	m.pendingReach[c] = m.pendingReach[c][:0]
	m.pendingIn[c] = m.pendingIn[c][:0]
	key := incr.ChainNext(m.chain[c], input)
	m.chain[c] = key
	if run, ok := m.cache.Lookup(key); ok && st.replay(c, run) {
		m.hits++
		return
	}
	m.misses++
	m.liveRun[c] = true
	m.cache.Store(key, st.record(seeds))
}

// inputHash digests the pending external effects of component c: the flipped
// points (by local index) and the externally pushed (node, location) entries
// with their current accumulated values. Both lists are sorted and
// deduplicated under version-portable orders (local indices and stable
// location keys), so the hash is independent of arrival order — and the
// LessEq gate on the pushing side already dropped no-op pushes identically
// in record and replay mode.
func (st *store) inputHash(c int32) string {
	m := st.memo
	reach := make([]int, 0, len(m.pendingReach[c]))
	for _, t := range m.pendingReach[c] {
		reach = append(reach, int(m.p.LocalIdx[t]))
	}
	sort.Ints(reach)
	parts := make([]string, 0, 2+len(reach)+3*len(m.pendingIn[c]))
	parts = append(parts, "reach")
	for i, li := range reach {
		if i > 0 && li == reach[i-1] {
			continue
		}
		parts = append(parts, strconv.Itoa(li))
	}
	type inEntry struct {
		li   int32
		key  string
		slot int32
	}
	ins := make([]inEntry, 0, len(m.pendingIn[c]))
	for _, e := range m.pendingIn[c] {
		ins = append(ins, inEntry{li: m.p.LocalIdx[e.n], key: m.namer.LocKey(st.g.AccLoc(e.slot)), slot: e.slot})
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
		parts = append(parts, strconv.Itoa(int(e.li)), e.key, incr.ValKey(st.acc[e.slot], m.namer))
	}
	return incr.HashParts(parts...)
}

// recBuf accumulates one live run's transcript: which points fired, which
// Out slots (and with them their widening counters) and internally pushed
// Acc slots changed. The lists may repeat entries; the transcript is a set
// of final values.
type recBuf struct {
	fired      []dug.NodeID
	outs, accs []slotRef
}

// record runs the running component live with the recorder attached and
// returns its transcript.
func (st *store) record(seeds []int32) *incr.Run {
	b := &recBuf{}
	st.rec = b
	steps, joins, widenings := st.d.Steps, st.joins, st.widenings
	st.d.RunLive(seeds)
	st.rec = nil
	p := st.memo.p
	run := &incr.Run{
		Steps:     int64(st.d.Steps - steps),
		Joins:     int64(st.joins - joins),
		Widenings: int64(st.widenings - widenings),
	}
	for _, n := range b.fired {
		run.Fired = append(run.Fired, p.LocalIdx[n])
	}
	slices.Sort(run.Fired)
	run.Fired = slices.Compact(run.Fired)
	cache := st.memo.cache
	for _, r := range st.sortSlots(b.outs) {
		run.Out = append(run.Out, incr.Delta{
			Node: p.LocalIdx[r.n],
			Loc:  cache.LocIdx(st.g.Defs[r.n][r.slot-st.cbase[r.n]]),
			Val:  cache.EncodeVal(st.out[r.slot]),
		})
		run.Counts = append(run.Counts, incr.Count{
			Node: p.LocalIdx[r.n],
			Def:  r.slot - st.cbase[r.n],
			Cnt:  st.counts[r.slot],
		})
	}
	for _, r := range st.sortSlots(b.accs) {
		run.Acc = append(run.Acc, incr.Delta{
			Node: p.LocalIdx[r.n],
			Loc:  cache.LocIdx(st.g.AccLoc(r.slot)),
			Val:  cache.EncodeVal(st.acc[r.slot]),
		})
	}
	return run
}

// sortSlots orders and deduplicates slots by (local index, slot) — a
// canonical, version-portable order: within a node, slots follow its sorted
// Defs or in-edge locations, which the structure hash pins.
func (st *store) sortSlots(s []slotRef) []slotRef {
	p := st.memo.p
	slices.SortFunc(s, func(a, b slotRef) int {
		if la, lb := p.LocalIdx[a.n], p.LocalIdx[b.n]; la != lb {
			return int(la - lb)
		}
		return int(a.slot - b.slot)
	})
	return slices.Compact(s)
}

// replay applies a recorded transcript. Decoding is all-or-nothing: every
// entry is resolved against the current program and graph before any state
// mutates, so a failed decode (an entity the edit removed, a malformed value)
// leaves the state untouched and the caller falls back to a live run.
// Returns whether the transcript was applied.
func (st *store) replay(c int32, run *incr.Run) bool {
	p := st.memo.p
	nodes := p.Nodes[c]
	type delta struct {
		n    dug.NodeID
		l    ir.LocID
		slot int32
		v    val.Val
	}
	// decode resolves each entry's Out slot (among Defs[n]) or, for acc,
	// its Acc slot (among InLocs(n)).
	decode := func(ds []incr.Delta, acc bool) ([]delta, bool) {
		out := make([]delta, len(ds))
		for i, e := range ds {
			if int(e.Node) >= len(nodes) {
				return nil, false
			}
			n := nodes[e.Node]
			l, ok := st.memo.cache.LocID(e.Loc)
			if !ok {
				return nil, false
			}
			locs, base := st.g.Defs[n], st.cbase[n]
			if acc {
				locs, base = st.g.InLocs(n), st.g.AccBase(n)
			}
			j, found := slices.BinarySearch(locs, l)
			if !found {
				return nil, false
			}
			v, ok := st.memo.cache.DecodeVal(e.Val)
			if !ok {
				return nil, false
			}
			out[i] = delta{n: n, l: l, slot: base + int32(j), v: v}
		}
		return out, true
	}
	outs, ok := decode(run.Out, false)
	if !ok {
		return false
	}
	accs, ok := decode(run.Acc, true)
	if !ok {
		return false
	}
	for _, cn := range run.Counts {
		if int(cn.Node) >= len(nodes) || int(cn.Def) >= len(st.g.Defs[nodes[cn.Node]]) {
			return false
		}
	}
	for _, li := range run.Fired {
		if int(li) >= len(nodes) {
			return false
		}
	}

	for _, cn := range run.Counts {
		st.counts[st.cbase[nodes[cn.Node]]+cn.Def] = cn.Cnt
	}
	for _, e := range accs {
		st.acc[e.slot], st.accSet[e.slot] = e.v, true
	}
	// Outputs: store the final value and re-emit the external pushes against
	// the current graph (internal targets are covered by the Acc deltas).
	for _, e := range outs {
		st.out[e.slot], st.outSet[e.slot] = e.v, true
		cur := st.g.Out(e.n)
		succs, slots := cur.SeekSlots(e.l)
		for k, succ := range succs {
			if p.Comp[succ] != c {
				st.push(succ, slots[k], e.v)
			}
		}
	}
	// Reachability: re-run the marking rules of every fired point. Marks are
	// monotone flips and deferred appends are set-like at the barrier, so
	// replaying each fired point once reaches the live run's final mark set.
	// Internal flips need no worklist (the whole run is replayed); external
	// ones behave exactly like live marks.
	mark := func(t ir.PointID) {
		if p.Comp[t] == c {
			st.d.Reached[t] = true
		} else {
			st.d.Mark(t)
		}
	}
	for _, li := range run.Fired {
		if n := nodes[li]; !st.g.IsPhi(n) {
			compsched.ReachTargets(st.prog, st.pre, st.prog.Point(ir.PointID(n)), mark)
		}
	}
	st.d.Steps += int(run.Steps)
	st.joins += int(run.Joins)
	st.widenings += int(run.Widenings)
	return true
}

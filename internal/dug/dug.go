// Package dug builds the data-dependency graph (def-use graph) that drives
// the sparse analysis: the relation ↝ ⊆ C × L# × C of Definition 3/4,
// approximated by D̂/Û from the pre-analysis (Definition 5) and generated
// with the standard SSA algorithm as Section 5 describes.
//
// Construction is per-procedure: a call is a definition (resp. use) of the
// locations its callees may define (resp. use), the entry of a procedure
// defines every location the body uses, and the exit uses every location the
// body defines; dependencies then link call sites to entries and exits to
// return sites. The chain-bypass optimization of Section 5 splices nodes
// that neither define nor use a location out of its dependency chains, which
// the paper reports is what makes the interprocedural analysis actually
// sparse.
//
// The graph is laid out for the solver hot path: per-node D̂/Û are sorted
// dense-ID slices sharing contiguous backing arrays, and the successor
// relation is a two-level CSR index (per-node sorted location keys with an
// (offset, len) row of successors each) that the solvers read in place. The
// builder itself stages dependency triples into one flat slice and orders
// them with linear counting sorts instead of deduplicating through
// per-⟨node, loc⟩ maps.
package dug

import (
	"math"
	"slices"

	"sparrow/internal/callgraph"
	"sparrow/internal/cfg"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/ssa"
)

// NodeID identifies a node of the def-use graph: IDs below PointCount are
// control points, the rest are phi nodes.
type NodeID int32

// Phi is an SSA join node for one location, placed at a control point.
type Phi struct {
	At  ir.PointID
	Loc ir.LocID
}

// Options configures graph construction.
type Options struct {
	// Bypass enables the interprocedural chain-bypass optimization.
	Bypass bool
	// MaxSpliceFanout bounds |preds|×|succs| of a splice to avoid edge
	// blowup (0 uses the default of 256).
	MaxSpliceFanout int
	// Metrics, when non-nil, receives the finished graph's size counters
	// (nodes, dependency triples, phis, spliced triples, ΣD̂/ΣÛ) — the
	// paper's first-class sparse-representation scalability metric.
	Metrics *metrics.Collector
	// EntryMarks, when non-nil, lists per procedure the locations its Entry
	// transfer marks possibly-uninitialized (sem.Sem.EntryMarks). Marked
	// locations are genuine entry definitions, not bypassable linkage: they
	// are kept out of the entry's pass set so the chain bypass never splices
	// the entry out of their dependency chains.
	EntryMarks func(p ir.ProcID) []ir.LocID
	// Budget is the cooperative cancellation token (internal/runtime),
	// checkpointed between build stages. A half-built graph is useless, so
	// a breach aborts via rt.Abort (recovered at the core boundary). nil is
	// free.
	Budget *rt.Budget
}

// Graph is the def-use graph.
type Graph struct {
	Prog       *ir.Program
	PointCount int
	Phis       []Phi
	// Defs[n]/Uses[n] are D̂/Û per node (post-bypass), sorted. The
	// per-node slices are views into two shared backing arrays.
	Defs [][]ir.LocID
	Uses [][]ir.LocID
	// Widen[n] marks per-location widening nodes: phis at loop heads and
	// entries of recursive procedures.
	Widen []bool
	// Prio[n] is the worklist priority.
	Prio []int
	// EdgeCount is the number of ⟨from, loc, to⟩ triples.
	EdgeCount int
	// SplicedEdges counts edges removed+added by the bypass optimization.
	SplicedTriples int

	// CSR successor index: node n's rows live at edgeLocs[edgeRow[n]:
	// edgeRow[n+1]] (sorted location keys); key index k's successors are
	// succs[succOff[k]:succOff[k+1]] (sorted).
	edgeLocs []ir.LocID
	edgeRow  []int32
	succOff  []int32
	succs    []NodeID

	// Acc slots, the cells of the sparse solvers' accumulated inputs: node
	// n's distinct in-edge locations are accLocs[accOff[n]:accOff[n+1]]
	// (sorted), one slot each. succSlot parallels succs: succSlot[k] is the
	// slot of the edge's location at its target succs[k].
	accOff   []int32
	accLocs  []ir.LocID
	succSlot []int32
}

// NumNodes returns the node count (points + phis).
func (g *Graph) NumNodes() int { return g.PointCount + len(g.Phis) }

// IsPhi reports whether n is a phi node.
func (g *Graph) IsPhi(n NodeID) bool { return int(n) >= g.PointCount }

// PhiOf returns the phi descriptor of a phi node.
func (g *Graph) PhiOf(n NodeID) Phi { return g.Phis[int(n)-g.PointCount] }

// PointOf returns the control point of a point node.
func (g *Graph) PointOf(n NodeID) ir.PointID { return ir.PointID(n) }

// Succs returns the dependency successors of n on location l (binary search
// over n's CSR row keys). Solvers iterating Defs[n] in order should prefer
// the Out cursor, which advances in lockstep instead of searching.
func (g *Graph) Succs(n NodeID, l ir.LocID) []NodeID {
	lo, hi := g.edgeRow[n], g.edgeRow[n+1]
	row := g.edgeLocs[lo:hi]
	i, j := 0, len(row)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if row[mid] < l {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i < len(row) && row[i] == l {
		k := int(lo) + i
		return g.succs[g.succOff[k]:g.succOff[k+1]]
	}
	return nil
}

// AccSlots returns the number of Acc slots: the distinct (node, in-edge
// location) pairs over all nodes.
func (g *Graph) AccSlots() int { return len(g.accLocs) }

// InLocs returns n's distinct in-edge locations, sorted; InLocs(n)[j] is Acc
// slot AccBase(n)+j. A solver accumulates n's input on these locations only.
func (g *Graph) InLocs(n NodeID) []ir.LocID { return g.accLocs[g.accOff[n]:g.accOff[n+1]] }

// AccBase returns the first Acc slot of n.
func (g *Graph) AccBase(n NodeID) int32 { return g.accOff[n] }

// AccLoc returns the location of an Acc slot.
func (g *Graph) AccLoc(slot int32) ir.LocID { return g.accLocs[slot] }

// OutCursor walks one node's successor rows in ascending location order.
// Seek must be called with non-decreasing locations — exactly the order of
// Defs[n] — and amortizes to O(1) per call where Succs pays a binary search.
type OutCursor struct {
	locs  []ir.LocID
	off   []int32
	succs []NodeID
	slots []int32
	i     int
}

// Out returns a successor cursor for n.
func (g *Graph) Out(n NodeID) OutCursor {
	lo, hi := g.edgeRow[n], g.edgeRow[n+1]
	return OutCursor{locs: g.edgeLocs[lo:hi], off: g.succOff[lo : hi+1], succs: g.succs, slots: g.succSlot}
}

// Seek advances to location l and returns its successor row (nil if none).
func (c *OutCursor) Seek(l ir.LocID) []NodeID {
	succs, _ := c.SeekSlots(l)
	return succs
}

// SeekSlots is Seek that also returns, in parallel, each successor's Acc
// slot for l.
func (c *OutCursor) SeekSlots(l ir.LocID) ([]NodeID, []int32) {
	for c.i < len(c.locs) && c.locs[c.i] < l {
		c.i++
	}
	if c.i < len(c.locs) && c.locs[c.i] == l {
		lo, hi := c.off[c.i], c.off[c.i+1]
		return c.succs[lo:hi], c.slots[lo:hi]
	}
	return nil, nil
}

// Range visits every dependency triple until f returns false, in
// (from, loc, to) order.
func (g *Graph) Range(f func(from NodeID, l ir.LocID, to NodeID) bool) {
	for n := 0; n+1 < len(g.edgeRow); n++ {
		for k := g.edgeRow[n]; k < g.edgeRow[n+1]; k++ {
			l := g.edgeLocs[k]
			for _, t := range g.succs[g.succOff[k]:g.succOff[k+1]] {
				if !f(NodeID(n), l, t) {
					return
				}
			}
		}
	}
}

// AvgDefUse returns the average |D̂(c)| and |Û(c)| over statement points
// (Table 2/3's D̂(c) and Û(c) columns).
func (g *Graph) AvgDefUse() (avgD, avgU float64) {
	n := 0
	var sd, su int
	for id := 0; id < g.PointCount; id++ {
		switch g.Prog.Point(ir.PointID(id)).Cmd.(type) {
		case ir.Entry, ir.Exit, ir.Skip:
			continue
		}
		n++
		sd += len(g.Defs[id])
		su += len(g.Uses[id])
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sd) / float64(n), float64(su) / float64(n)
}

// Source abstracts what graph construction needs from an analysis design,
// so the same builder serves the non-relational (locations) and relational
// (packs) instantiations. The ID space of "locations" is whatever the
// DefsUses/summaries speak — ir.LocID for intervals, pack IDs for octagons.
type Source struct {
	Prog     *ir.Program
	CG       *callgraph.Graph
	Callees  func(ir.PointID) []ir.ProcID
	RetSites [][]ir.PointID
	// DefsUsesAppend appends the members of the command-local D̂(c)/Û(c)
	// to defs/uses (possibly with duplicates — the builder deduplicates)
	// and returns the extended slices.
	DefsUsesAppend func(pt *ir.Point, defs, uses []ir.LocID) ([]ir.LocID, []ir.LocID)
	// AlwaysKills returns D_always(c); required only by BuildDefUseChains.
	AlwaysKills func(pt *ir.Point) sem.LocSet
	// DefSummary/UseSummary are the transitive per-procedure summaries as
	// sorted LocID slices.
	DefSummary [][]ir.LocID
	UseSummary [][]ir.LocID
	// RetChan maps a procedure to its return-channel ID (ir.None if void).
	RetChan func(p ir.ProcID) ir.LocID
	// EntryMarks mirrors Options.EntryMarks in the Source's own ID space;
	// Build copies it from the options for the interval instantiation.
	EntryMarks func(p ir.ProcID) []ir.LocID
}

// IntervalSource adapts the non-relational pre-analysis to a Source.
func IntervalSource(prog *ir.Program, pre *prean.Result) *Source {
	s := pre.Sem(prog)
	return &Source{
		Prog:     prog,
		CG:       pre.CG,
		Callees:  pre.CalleesOf,
		RetSites: pre.RetSites,
		DefsUsesAppend: func(pt *ir.Point, defs, uses []ir.LocID) ([]ir.LocID, []ir.LocID) {
			return s.DefsUsesAppend(pt, pre.Mem, defs, uses)
		},
		AlwaysKills: func(pt *ir.Point) sem.LocSet {
			return s.AlwaysKills(pt, pre.Mem)
		},
		DefSummary: pre.DefSummary,
		UseSummary: pre.UseSummary,
		RetChan:    func(p ir.ProcID) ir.LocID { return prog.ProcByID(p).RetLoc },
	}
}

// triple is one staged dependency edge ⟨from, loc, to⟩.
type triple struct {
	from NodeID
	loc  ir.LocID
	to   NodeID
}

// arena hands out stable []ir.LocID views backed by large shared blocks, so
// the three small per-node access sets don't cost one allocation each.
type arena struct{ buf []ir.LocID }

func (a *arena) place(s []ir.LocID) []ir.LocID {
	if len(s) == 0 {
		return nil
	}
	if len(a.buf)+len(s) > cap(a.buf) {
		n := 1 << 14
		if len(s) > n {
			n = len(s)
		}
		a.buf = make([]ir.LocID, 0, n)
	}
	off := len(a.buf)
	a.buf = append(a.buf, s...)
	return a.buf[off:len(a.buf):len(a.buf)]
}

// builder carries construction state.
type builder struct {
	prog *ir.Program
	src  *Source
	opt  Options

	g *Graph
	// access[p] is UseSummary[p] ∪ DefSummary[p]: everything a call of p
	// relays, p's entry defines and p's exit returns.
	access [][]ir.LocID
	// defs/uses/pass are the per-point D̂/Û/linkage-only sets as sorted
	// deduplicated slices (pass members are the bypass candidates). The
	// bypass optimization shrinks them in place. A phi's D̂ and Û are its
	// location and its pass set is empty, so the tables stop at the points.
	defs [][]ir.LocID
	uses [][]ir.LocID
	pass [][]ir.LocID
	// triples stages dependency edges flat, duplicates included; the
	// counting sorts of buildAdjacency order and deduplicate them.
	triples []triple
	adj     adjacency
}

// newBuilder sizes the per-point tables and the per-procedure access sets.
func newBuilder(src *Source, opt Options) *builder {
	if opt.MaxSpliceFanout == 0 {
		opt.MaxSpliceFanout = 256
	}
	prog := src.Prog
	n := len(prog.Points)
	b := &builder{
		prog:   prog,
		src:    src,
		opt:    opt,
		g:      &Graph{Prog: prog, PointCount: n},
		access: make([][]ir.LocID, len(prog.Procs)),
		defs:   make([][]ir.LocID, n),
		uses:   make([][]ir.LocID, n),
		pass:   make([][]ir.LocID, n),
	}
	for p := range b.access {
		b.access[p] = ir.MergeLocs(nil, src.UseSummary[p], src.DefSummary[p])
	}
	return b
}

// Build constructs the def-use graph of prog from the non-relational
// pre-analysis result.
func Build(prog *ir.Program, pre *prean.Result, opt Options) *Graph {
	src := IntervalSource(prog, pre)
	src.EntryMarks = opt.EntryMarks
	return BuildFrom(src, opt)
}

// BuildFrom constructs the def-use graph from an arbitrary Source.
func BuildFrom(src *Source, opt Options) *Graph {
	prog := src.Prog
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b := newBuilder(src, opt)
	b.initNodes()
	opt.Budget.Checkpoint(rt.PhaseDUG)
	info := cfg.Compute(prog, src.CG, src.Callees)
	// Stage every triple into one allocation: the linkage triples are
	// counted up front; the SSA triples are one per use at a point plus the
	// phi inputs, which in practice stay below the use count.
	size := 0
	b.linkInterproc(func(NodeID, ir.LocID, NodeID) { size++ })
	for _, u := range b.uses {
		size += 2 * len(u)
	}
	b.triples = make([]triple, 0, size)
	// Per-procedure SSA in procedure order (dominators, phi placement,
	// renaming), which numbers the phis.
	sc := stageScratch{rpo: make([]int32, len(prog.Points))}
	for _, pr := range prog.Procs {
		b.stageProc(pr, info, &sc)
	}
	// Point nodes inherit the solver widening points (loop heads, recursive
	// entries and return sites); phis widen at loop heads. Widening nodes
	// are also pinned by the bypass optimization so that every dependency
	// cycle keeps a widening point.
	b.g.Widen = make([]bool, b.g.NumNodes())
	copy(b.g.Widen, info.Widen)
	for k, ph := range b.g.Phis {
		b.g.Widen[b.g.PointCount+k] = info.LoopHead[ph.At]
	}
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.linkInterproc(b.addEdge)
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.buildAdjacency()
	opt.Budget.Checkpoint(rt.PhaseDUG)
	if opt.Bypass {
		b.bypass()
	}
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.finalize(info)
	b.g.flushMetrics(opt.Metrics)
	return b.g
}

// flushMetrics records the finished graph's size counters.
func (g *Graph) flushMetrics(col *metrics.Collector) {
	if col == nil {
		return
	}
	col.Add(metrics.CtrDUGNodes, int64(g.NumNodes()))
	col.Add(metrics.CtrDUGEdges, int64(g.EdgeCount))
	col.Add(metrics.CtrDUGPhis, int64(len(g.Phis)))
	col.Add(metrics.CtrDUGSpliced, int64(g.SplicedTriples))
	var defs, uses int64
	for n := range g.Defs {
		defs += int64(len(g.Defs[n]))
		uses += int64(len(g.Uses[n]))
	}
	col.Add(metrics.CtrDUGDefs, defs)
	col.Add(metrics.CtrDUGUses, uses)
}

// initScratch carries the reusable buffers of initNode.
type initScratch struct {
	ownD, ownU []ir.LocID // command-local D̂/Û
	d, u, p    []ir.LocID // the node's final sets
	acc, tmp   []ir.LocID // union of several callees' access sets
	ret        []ir.LocID // return channels of a RetBind's callees
	ar         arena
}

// initNodes computes the per-point D̂/Û including interprocedural linkage
// sets, and records which memberships are linkage-only (bypassable).
func (b *builder) initNodes() {
	var sc initScratch
	for _, pt := range b.prog.Points {
		b.initNode(pt, &sc)
	}
}

// calleeAccess returns the union of the callees' access sets, in sc's
// buffers when there is more than one callee.
func (b *builder) calleeAccess(callees []ir.ProcID, sc *initScratch) []ir.LocID {
	switch len(callees) {
	case 0:
		return nil
	case 1:
		return b.access[callees[0]]
	}
	acc := append(sc.acc[:0], b.access[callees[0]]...)
	for _, pr := range callees[1:] {
		sc.tmp = ir.MergeLocs(sc.tmp[:0], acc, b.access[pr])
		acc, sc.tmp = sc.tmp, acc
	}
	sc.acc = acc
	return acc
}

// initNode fills the D̂/Û/pass tables of one point. Every set is built by
// merging sorted sets, never by sorting their concatenation.
func (b *builder) initNode(pt *ir.Point, sc *initScratch) {
	n := NodeID(pt.ID)
	ownD, ownU := b.src.DefsUsesAppend(pt, sc.ownD[:0], sc.ownU[:0])
	ownD, ownU = ir.DedupLocs(ownD), ir.DedupLocs(ownU)
	sc.ownD, sc.ownU = ownD, ownU
	d, u, p := ownD, ownU, []ir.LocID(nil)
	// Interprocedural linkage (Section 5): a call uses everything its
	// callees access — including the locations they may (weakly or
	// spuriously) define, so that stale caller values flow *through*
	// the callee and are killed by its strong definitions rather than
	// rejoined at the return site. Entries define what flows in, exits
	// use what the body defined, return sites define the callee-final
	// values they receive from the exit.
	switch c := pt.Cmd.(type) {
	case ir.Call:
		// The call both uses and defines (relays) everything its
		// callees access: its definition values are the identity on the
		// caller's reaching values (plus the formal bindings), carried
		// into the callee entry by the call→entry edges.
		acc := b.calleeAccess(b.src.Callees(pt.ID), sc)
		sc.u = ir.MergeLocs(sc.u[:0], ownU, acc)
		sc.d = ir.MergeLocs(sc.d[:0], ownD, acc)
		sc.p = removeLocs(removeLocs(append(sc.p[:0], acc...), ownU), ownD)
		d, u, p = sc.d, sc.u, sc.p
	case ir.Entry:
		if b.prog.ProcByID(pt.Proc).Entry == pt.ID {
			acc := b.access[pt.Proc]
			sc.d = ir.MergeLocs(sc.d[:0], ownD, acc)
			sc.p = append(sc.p[:0], acc...)
			if b.src.EntryMarks != nil {
				// Marked locations are genuine definitions of the entry
				// transfer (possibly-uninitialized seeds), not relayed
				// linkage: the bypass must not splice the entry out of
				// their chains, so they leave the pass set.
				if marks := b.src.EntryMarks(pt.Proc); len(marks) > 0 {
					sc.p = removeLocs(sc.p, marks)
				}
			}
			d, p = sc.d, sc.p
		}
	case ir.Exit:
		// The exit both uses and defines (relays) everything the body
		// accessed — not just what it defined. Access-based localization
		// returns the whole accessed slice of the callee memory to the
		// return sites, so a used-but-never-defined location round-trips
		// through the callee and is joined across its call sites; the
		// sparse graph must reproduce exactly that flow, or the sparse
		// fixpoint comes out strictly tighter than the baseline at
		// multi-site callees (breaking Lemma 2 fidelity).
		acc := b.access[pt.Proc]
		sc.p = removeLocs(append(sc.p[:0], acc...), ownU)
		sc.u = ir.MergeLocs(sc.u[:0], ownU, acc)
		sc.d = ir.MergeLocs(sc.d[:0], ownD, acc)
		if rl := b.src.RetChan(pt.Proc); rl != ir.None {
			sc.u = insertLoc(sc.u, rl)
			sc.d = insertLoc(sc.d, rl)
		}
		d, u, p = sc.d, sc.u, sc.p
	case ir.RetBind:
		// Mirror of the exit: the return site defines everything any
		// callee accessed (the localized return memory). A callee's own
		// return channel is not linkage of its contribution.
		callees := b.src.Callees(c.CallPt)
		sc.d = ir.MergeLocs(sc.d[:0], ownD, b.calleeAccess(callees, sc))
		rets, pass := sc.ret[:0], sc.p[:0]
		for _, pr := range callees {
			own := b.access[pr]
			if rl := b.src.RetChan(pr); rl != ir.None {
				rets = append(rets, rl)
				if ir.LocsContain(own, rl) {
					sc.tmp = removeLoc(append(sc.tmp[:0], own...), rl)
					own = sc.tmp
				}
			}
			sc.acc = ir.MergeLocs(sc.acc[:0], pass, own)
			pass, sc.acc = sc.acc, pass
		}
		sc.ret, sc.p = rets, removeLocs(removeLocs(pass, ownD), ownU)
		d, p = sc.d, sc.p
		// The return channel must arrive exclusively over the
		// exit→return-site edge; caller-side SSA wiring of it would
		// join stale pre-call values into the delivered result.
		if len(rets) > 0 {
			sc.u = removeLocs(append(sc.u[:0], ownU...), ir.DedupLocs(rets))
			u = sc.u
		}
	}
	b.defs[n] = sc.ar.place(d)
	b.uses[n] = sc.ar.place(u)
	b.pass[n] = sc.ar.place(p)
}

// removeLocs deletes the members of sorted rem from sorted s in place.
func removeLocs(s, rem []ir.LocID) []ir.LocID {
	if len(rem) == 0 {
		return s
	}
	out := s[:0]
	j := 0
	for _, l := range s {
		for j < len(rem) && rem[j] < l {
			j++
		}
		if j < len(rem) && rem[j] == l {
			continue
		}
		out = append(out, l)
	}
	return out
}

// removeLoc deletes l from the sorted set s in place.
func removeLoc(s []ir.LocID, l ir.LocID) []ir.LocID {
	i, ok := slices.BinarySearch(s, l)
	if !ok {
		return s
	}
	return slices.Delete(s, i, i+1)
}

// insertLoc adds l to the sorted set s.
func insertLoc(s []ir.LocID, l ir.LocID) []ir.LocID {
	i, ok := slices.BinarySearch(s, l)
	if ok {
		return s
	}
	return slices.Insert(s, i, l)
}

// noDef marks a location with no reaching definition during renaming.
const noDef = NodeID(math.MaxInt32)

// stageScratch carries the dense tables and the dominance buffers of
// stageProc. The point and location tables are indexed by global ID and hold
// local index+1 (0 = absent); stageProc clears every entry it sets before
// returning.
type stageScratch struct {
	rpo  []int32 // point → RPO index in the current procedure
	lidx []int32 // location → index among the procedure's defined locations
	locs []ir.LocID
	// Local location li's definition sites are sites[siteOff[li]:
	// siteOff[li+1]] (RPO indices, ascending).
	sites, siteOff []int32
	dom            ssa.Dom
	idf            ssa.IDF
	// phiHead[i] is the last local phi placed at RPO index i, and
	// phiNext[k] the phi placed there before phi k (-1 ends the chain).
	phiHead, phiNext []int32
	// top[li] is the reaching definition of local location li; undo logs
	// the overwritten tops so the dominator-tree walk can restore them.
	top  []NodeID
	undo []reaching
}

type reaching struct {
	li   int32
	prev NodeID
}

// stageProc runs per-location SSA over one procedure: phi placement at
// iterated dominance frontiers of definition sites, then a single renaming
// walk over the dominator tree appending def→use dependency triples. It only
// reads the per-point tables, which are complete after initNodes. The
// procedure's phis take the next node IDs in placement order: locations
// ascending, each location's sites in discovery order.
func (b *builder) stageProc(pr *ir.Proc, info *cfg.Info, sc *stageScratch) {
	if len(pr.Points) == 0 || pr.Entry == ir.None {
		return
	}
	order := info.ProcRPO(pr.ID)
	for i, id := range order {
		sc.rpo[id] = int32(i + 1)
	}
	dom := &sc.dom
	dom.Compute(b.prog, order, sc.rpo)
	// The tracked locations in ascending order are the defined ones; their
	// ranks are the local indices. A counting sort of the definitions by
	// rank then lists each location's sites in ascending RPO order.
	locs := sc.locs[:0]
	for _, id := range order {
		for _, l := range b.defs[id] {
			if int(l) >= len(sc.lidx) {
				sc.lidx = append(sc.lidx, make([]int32, int(l)+1-len(sc.lidx))...)
			}
			if sc.lidx[l] == 0 {
				sc.lidx[l] = 1
				locs = append(locs, l)
			}
		}
	}
	slices.Sort(locs)
	off := slices.Grow(sc.siteOff[:0], len(locs)+1)[:len(locs)+1]
	clear(off)
	for li, l := range locs {
		sc.lidx[l] = int32(li + 1)
	}
	for _, id := range order {
		for _, l := range b.defs[id] {
			off[sc.lidx[l]]++
		}
	}
	for li := range locs {
		off[li+1] += off[li]
	}
	sites := slices.Grow(sc.sites[:0], int(off[len(locs)]))[:off[len(locs)]]
	for i, id := range order {
		for _, l := range b.defs[id] {
			li := sc.lidx[l] - 1
			sites[off[li]] = int32(i)
			off[li]++
		}
	}
	copy(off[1:], off[:len(locs)])
	off[0] = 0
	sc.locs, sc.sites, sc.siteOff = locs, sites, off

	// Phi placement, location by location.
	head := slices.Grow(sc.phiHead[:0], len(order))[:len(order)]
	for i := range head {
		head[i] = -1
	}
	next := sc.phiNext[:0]
	first := len(b.g.Phis)
	for li, l := range locs {
		for _, i := range sc.idf.Of(dom, sites[off[li]:off[li+1]]) {
			b.g.Phis = append(b.g.Phis, Phi{At: order[i], Loc: l})
			next = append(next, head[i])
			head[i] = int32(len(next) - 1)
		}
	}
	sc.phiHead, sc.phiNext = head, next
	// Local phi k is node base+k.
	phis := b.g.Phis[first:]
	base := NodeID(b.g.PointCount + first)

	top := slices.Grow(sc.top[:0], len(locs))[:len(locs)]
	for i := range top {
		top[i] = noDef
	}
	undo := sc.undo[:0]
	push := func(li int32, d NodeID) {
		undo = append(undo, reaching{li, top[li]})
		top[li] = d
	}
	local := func(l ir.LocID) int32 {
		if int(l) < len(sc.lidx) {
			return sc.lidx[l] - 1
		}
		return -1
	}

	// Renaming: one preorder walk of the dominator tree.
	var visit func(i int)
	visit = func(i int) {
		mark := len(undo)
		pid := order[i]
		n := NodeID(pid)
		// Phis first: they join the incoming paths and dominate the point's
		// own use/def.
		for k := head[i]; k >= 0; k = next[k] {
			push(sc.lidx[phis[k].Loc]-1, base+NodeID(k))
		}
		// Uses read the value reaching the point (after phis).
		for _, l := range b.uses[n] {
			if li := local(l); li >= 0 && top[li] != noDef {
				b.addEdge(top[li], l, n)
			}
		}
		// Defs kill for dominated points. (Weak definitions are also uses,
		// so their incoming value still flows — Definition 3's treatment of
		// may-kills.)
		for _, l := range b.defs[n] {
			push(sc.lidx[l]-1, n)
		}
		// Feed phi inputs of CFG successors.
		for _, s := range b.prog.Point(pid).Succs {
			si := int(sc.rpo[s]) - 1
			if si < 0 {
				continue
			}
			for k := head[si]; k >= 0; k = next[k] {
				l := phis[k].Loc
				if d := top[sc.lidx[l]-1]; d != noDef {
					b.addEdge(d, l, base+NodeID(k))
				}
			}
		}
		for _, c := range dom.Children(i) {
			visit(int(c))
		}
		for len(undo) > mark {
			u := undo[len(undo)-1]
			top[u.li] = u.prev
			undo = undo[:len(undo)-1]
		}
	}
	visit(0)
	sc.top, sc.undo = top, undo

	for _, id := range order {
		sc.rpo[id] = 0
	}
	for _, l := range locs {
		sc.lidx[l] = 0
	}
}

// addEdge stages the dependency triple ⟨from, l, to⟩. Duplicates are fine —
// the staged triples are sorted and deduplicated once when the adjacency
// rows are built. Self-edges are kept: SSA renaming never produces them, but
// the bypass optimization can collapse a spurious interprocedural feedback
// cycle (callee effect → return site → another call site → callee) onto a
// single transfer node, and the solver must keep iterating that cycle
// exactly as the dense analysis does.
func (b *builder) addEdge(from NodeID, l ir.LocID, to NodeID) {
	b.triples = append(b.triples, triple{from: from, loc: l, to: to})
}

// linkInterproc passes the call→entry and exit→return-site dependencies to
// add.
func (b *builder) linkInterproc(add func(from NodeID, l ir.LocID, to NodeID)) {
	// retBindOf[c] is the return-site point of call point c.
	retBindOf := make([]ir.PointID, len(b.prog.Points))
	for i := range retBindOf {
		retBindOf[i] = ir.None
	}
	for _, pt := range b.prog.Points {
		if rb, ok := pt.Cmd.(ir.RetBind); ok {
			retBindOf[rb.CallPt] = pt.ID
		}
	}
	var sc initScratch
	var retChans []ir.LocID
	for _, pt := range b.prog.Points {
		if _, ok := pt.Cmd.(ir.Call); !ok {
			continue
		}
		callees := b.src.Callees(pt.ID)
		for _, p := range callees {
			// Def-summary locations flow in too: stale caller values pass
			// through the callee and are killed by its strong definitions.
			entry := NodeID(b.prog.ProcByID(p).Entry)
			for _, l := range b.access[p] {
				add(NodeID(pt.ID), l, entry)
			}
		}
		// An indirect call can have callees with different access sets. The
		// return site defines every location any callee may access, and the
		// caller's SSA makes that definition shadow the pre-call value — so
		// for a location some callee does NOT access, the pre-call value
		// must flow call→return-site directly: along that callee's path the
		// stale value survives (access-based localization bypasses it
		// around that callee), and no exit edge delivers it. Ret channels
		// are excluded — they arrive exclusively over exit→return-site
		// edges (see initNode).
		if rs := retBindOf[pt.ID]; rs != ir.None && len(callees) > 1 {
			retChans = retChans[:0]
			for _, p := range callees {
				if rl := b.src.RetChan(p); rl != ir.None {
					retChans = append(retChans, rl)
				}
			}
			retChans = ir.DedupLocs(retChans)
			for _, l := range b.calleeAccess(callees, &sc) {
				if ir.LocsContain(retChans, l) {
					continue
				}
				for _, p := range callees {
					if !ir.LocsContain(b.access[p], l) {
						add(NodeID(pt.ID), l, NodeID(rs))
						break
					}
				}
			}
		}
	}
	for p, sites := range b.src.RetSites {
		exit := NodeID(b.prog.Procs[p].Exit)
		rl := b.src.RetChan(ir.ProcID(p))
		for _, rs := range sites {
			for _, l := range b.access[p] {
				add(exit, l, NodeID(rs))
			}
			if rl != ir.None {
				add(exit, rl, NodeID(rs))
			}
		}
	}
}

// edgeRef is one adjacency entry during construction: the neighbor node and
// the index of the neighbor's row for the same location in the opposite
// direction, so a splice edits both endpoints of an edge without searching
// for their rows.
type edgeRef struct {
	node NodeID
	row  int32
}

// span is one adjacency row: refs[off:off+len] with room up to off+cap.
type span struct{ off, len, cap int32 }

// adjacency is the graph under construction: per node, sorted location keys
// with one row of neighbors each, in both directions. Node n's out-keys are
// outLocs[outStart[n]:outStart[n+1]] and its rows the same range of out;
// likewise for in. Every row is a span of the one refs arena. The bypass
// optimization edits row contents but (invariant) never needs a new key — a
// splice only reconnects nodes that already carry edges on the spliced
// location — so row indices are stable.
type adjacency struct {
	outStart, inStart []int32
	outLocs, inLocs   []ir.LocID
	out, in           []span
	refs              []edgeRef
}

func (a *adjacency) row(s span) []edgeRef { return a.refs[s.off : s.off+s.len] }

// remove deletes the entry of n from row s by moving the last entry into its
// place.
func (a *adjacency) remove(s *span, n NodeID) {
	row := a.row(*s)
	for i, e := range row {
		if e.node == n {
			row[i] = row[len(row)-1]
			s.len--
			return
		}
	}
}

// add appends e to row s unless the row already holds e.node. A full row
// doubles its capacity: in place when it ends the arena, else by moving to
// the arena's end (its old slot stays unused). The arena itself doubles when
// full, so it is copied only O(log) times.
func (a *adjacency) add(s *span, e edgeRef) {
	for _, x := range a.row(*s) {
		if x.node == e.node {
			return
		}
	}
	if s.len == s.cap {
		off, c := s.off, max(2*s.cap, 4)
		if int(off+s.cap) != len(a.refs) {
			off = int32(len(a.refs))
		}
		if need := int(off + c); need > cap(a.refs) {
			refs := make([]edgeRef, need, max(2*cap(a.refs), need))
			copy(refs, a.refs)
			a.refs = refs
		} else {
			a.refs = a.refs[:need]
		}
		copy(a.refs[off:], a.row(*s))
		s.off, s.cap = off, c
	}
	a.refs[s.off+s.len] = e
	s.len++
}

// Key fields of the counting sorts over triples.
const (
	byFrom = iota
	byLoc
	byTo
)

// countingSort stably sorts src into dst by one key field, whose values lie
// in [0, len(cnt)-1).
func countingSort(dst, src []triple, cnt []int32, field int) {
	key := func(t triple) int32 {
		switch field {
		case byFrom:
			return int32(t.from)
		case byLoc:
			return int32(t.loc)
		}
		return int32(t.to)
	}
	clear(cnt)
	for _, t := range src {
		cnt[key(t)+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, t := range src {
		k := key(t)
		dst[cnt[k]] = t
		cnt[k]++
	}
}

// buildAdjacency turns the staged triples into adjacency rows with linear,
// stable counting sorts over the exact key ranges (node count and location
// count). Sorting by to, then loc, then from orders the triples by (from,
// loc, to) and makes duplicates adjacent; the deduplicated runs of equal
// (from, loc) are the out rows. Sorting the out entries by loc, then to,
// keeps each (to, loc) group in from order; those groups are the in rows.
// Each entry names its partner row. Every table is sized exactly, and the
// rows are full-cap'd spans, so a bypass append relocates the row instead of
// clobbering a neighbor.
func (b *builder) buildAdjacency() {
	n := b.g.NumNodes()
	ts := b.triples
	b.triples = nil
	a := &b.adj
	nLocs := 0
	for _, t := range ts {
		nLocs = max(nLocs, int(t.loc)+1)
	}
	tmp := make([]triple, len(ts))
	cnt := make([]int32, max(n, nLocs)+1)
	countingSort(tmp, ts, cnt[:n+1], byTo)
	countingSort(ts, tmp, cnt[:nLocs+1], byLoc)
	countingSort(tmp, ts, cnt[:n+1], byFrom)
	ded := ts[:0]
	for k, t := range tmp {
		if k == 0 || t != tmp[k-1] {
			ded = append(ded, t)
		}
	}
	m := len(ded)
	// Out entry k is ded[k]; its row field holds its own row until the in
	// rows are linked.
	a.refs = make([]edgeRef, 2*m)
	a.outStart, a.outLocs, a.out = carve(a.refs[:m], ded, n, 0)
	rowFrom := make([]NodeID, len(a.out))
	for i := 0; i < n; i++ {
		for r := a.outStart[i]; r < a.outStart[i+1]; r++ {
			rowFrom[r] = NodeID(i)
		}
	}
	// In entries: the out entries keyed by (to, loc), carrying their index.
	byIn := tmp[:m]
	for k, t := range ded {
		byIn[k] = triple{from: t.to, loc: t.loc, to: NodeID(k)}
	}
	countingSort(ts[:m], byIn, cnt[:nLocs+1], byLoc)
	countingSort(byIn, ts[:m], cnt[:n+1], byFrom)
	a.inStart, a.inLocs, a.in = carve(a.refs[m:], byIn, n, int32(m))
	for j := range byIn {
		in := &a.refs[m+j]
		out := &a.refs[in.node]
		in.node, in.row, out.row = rowFrom[out.row], out.row, in.row
	}
}

// carve cuts ts, sorted by (from, loc), into one row per run of equal (from,
// loc). It sets refs[j] to ts[j].to and entry j's row, and returns each
// node's first row (with a final sentinel), the rows' location keys, and
// their full-cap'd spans at offset base in the arena.
func carve(refs []edgeRef, ts []triple, n int, base int32) (start []int32, locs []ir.LocID, rows []span) {
	newRow := func(j int) bool {
		return j == 0 || ts[j].from != ts[j-1].from || ts[j].loc != ts[j-1].loc
	}
	nRows := 0
	for j := range ts {
		if newRow(j) {
			nRows++
		}
	}
	start = make([]int32, n+1)
	locs = make([]ir.LocID, nRows)
	rows = make([]span, nRows)
	r := int32(-1)
	for j, t := range ts {
		if newRow(j) {
			r++
			locs[r] = t.loc
			rows[r].off = base + int32(j)
			start[t.from+1]++
		}
		rows[r].len++
		rows[r].cap++
		refs[j] = edgeRef{node: t.to, row: r}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	return start, locs, rows
}

// findRow advances the cursor i over the sorted keys to l and returns the
// row index base+i, or -1 if l is not a key.
func findRow(keys []ir.LocID, i *int, base int32, l ir.LocID) int32 {
	for *i < len(keys) && keys[*i] < l {
		*i++
	}
	if *i < len(keys) && keys[*i] == l {
		return base + int32(*i)
	}
	return -1
}

// bypass applies the Section 5 optimization until convergence: a node that
// merely relays a location l (it is in l's dependency chains through
// linkage only, neither defining nor using l itself) is spliced out,
// connecting its predecessors directly to its successors.
func (b *builder) bypass() {
	a := &b.adj
	work := make([]NodeID, 0, len(b.pass))
	inWork := make([]bool, len(b.pass))
	for n := range b.pass {
		if len(b.pass[n]) > 0 {
			work = append(work, NodeID(n))
			inWork[n] = true
		}
	}
	rootProc := b.prog.ProcByID(b.prog.Main)
	var preds, succs []edgeRef
	var spliced []ir.LocID
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[n] = false
		if b.g.Widen[n] {
			continue // widening nodes must stay on their cycles
		}
		if n == NodeID(rootProc.Exit) {
			continue // the root exit stays observable (final program state)
		}
		if n == NodeID(rootProc.Entry) {
			continue // the root entry injects the initial state
		}
		inKeys := a.inLocs[a.inStart[n]:a.inStart[n+1]]
		outKeys := a.outLocs[a.outStart[n]:a.outStart[n+1]]
		ii, oi := 0, 0
		spliced = spliced[:0]
		// pass[n] is ascending and only shrinks after the loop, so n's own
		// rows are found by two cursors.
		for _, l := range b.pass[n] {
			preds, succs = preds[:0], succs[:0]
			inRow := findRow(inKeys, &ii, a.inStart[n], l)
			outRow := findRow(outKeys, &oi, a.outStart[n], l)
			if inRow >= 0 {
				for _, p := range a.row(a.in[inRow]) {
					if p.node != n {
						preds = append(preds, p)
					}
				}
			}
			if outRow >= 0 {
				for _, s := range a.row(a.out[outRow]) {
					if s.node != n {
						succs = append(succs, s)
					}
				}
			}
			if len(preds)*len(succs) > b.opt.MaxSpliceFanout {
				continue
			}
			// Remove the relay (including any self-loop, which is an
			// identity cycle at a pure relay) and reconnect; a pred that is
			// also a succ becomes a self-edge carrying the collapsed cycle.
			// Each neighbor entry names the partner row directly: drop n,
			// then merge in the opposite side (out[p][l] ∋ s iff
			// in[s][l] ∋ p, so the paired dedup checks agree).
			for _, p := range preds {
				row := &a.out[p.row]
				a.remove(row, n)
				for _, s := range succs {
					a.add(row, s)
				}
			}
			for _, s := range succs {
				row := &a.in[s.row]
				a.remove(row, n)
				for _, p := range preds {
					a.add(row, p)
				}
			}
			// The relay's own rows are now fully dead (all preds, succs, and
			// any self-loop removed).
			if inRow >= 0 {
				a.in[inRow].len = 0
			}
			if outRow >= 0 {
				a.out[outRow].len = 0
			}
			// Phis (past the pass table) relay nothing.
			requeue := func(m NodeID) {
				if int(m) < len(b.pass) && !inWork[m] && ir.LocsContain(b.pass[m], l) {
					work = append(work, m)
					inWork[m] = true
				}
			}
			if len(preds) > 0 {
				for _, s := range succs {
					requeue(s.node)
				}
			}
			for _, p := range preds {
				requeue(p.node)
			}
			b.g.SplicedTriples += len(preds) + len(succs)
			spliced = append(spliced, l)
		}
		if len(spliced) > 0 {
			b.pass[n] = removeLocs(b.pass[n], spliced)
			b.defs[n] = removeLocs(b.defs[n], spliced)
			b.uses[n] = removeLocs(b.uses[n], spliced)
		}
	}
}

// finalize compacts the access sets into shared backing arrays and builds
// the CSR successor index and the Acc slots. The non-empty in rows of a node
// are its distinct in-edge locations in ascending order, so they number its
// slots, and every out entry names its partner in row.
func (b *builder) finalize(info *cfg.Info) {
	g := b.g
	n := g.NumNodes()
	g.Defs = make([][]ir.LocID, n)
	g.Uses = make([][]ir.LocID, n)
	g.Prio = make([]int, n)
	totD, totU := len(g.Phis), len(g.Phis)
	for i := range b.defs {
		totD += len(b.defs[i])
		totU += len(b.uses[i])
	}
	defBack := make([]ir.LocID, 0, totD)
	useBack := make([]ir.LocID, 0, totU)
	var phiSet [1]ir.LocID
	for i := 0; i < n; i++ {
		var d, u []ir.LocID
		if i < g.PointCount {
			d, u = b.defs[i], b.uses[i]
			g.Prio[i] = info.Prio[i] * 2
		} else {
			ph := g.Phis[i-g.PointCount]
			phiSet[0] = ph.Loc
			d, u = phiSet[:], phiSet[:]
			g.Prio[i] = info.Prio[ph.At]*2 - 1
		}
		if len(d) > 0 {
			off := len(defBack)
			defBack = append(defBack, d...)
			g.Defs[i] = defBack[off:len(defBack):len(defBack)]
		}
		if len(u) > 0 {
			off := len(useBack)
			useBack = append(useBack, u...)
			g.Uses[i] = useBack[off:len(useBack):len(useBack)]
		}
	}
	a := &b.adj
	var nLocs, nEdges, nSlots int
	for _, row := range a.out {
		if row.len > 0 {
			nLocs++
			nEdges += int(row.len)
		}
	}
	for _, row := range a.in {
		if row.len > 0 {
			nSlots++
		}
	}
	inSlot := make([]int32, len(a.in))
	g.accOff = make([]int32, n+1)
	g.accLocs = make([]ir.LocID, 0, nSlots)
	for i := 0; i < n; i++ {
		g.accOff[i] = int32(len(g.accLocs))
		for r := a.inStart[i]; r < a.inStart[i+1]; r++ {
			if a.in[r].len > 0 {
				inSlot[r] = int32(len(g.accLocs))
				g.accLocs = append(g.accLocs, a.inLocs[r])
			}
		}
	}
	g.accOff[n] = int32(len(g.accLocs))
	g.edgeLocs = make([]ir.LocID, 0, nLocs)
	g.edgeRow = make([]int32, n+1)
	g.succOff = make([]int32, 0, nLocs+1)
	g.succs = make([]NodeID, 0, nEdges)
	g.succSlot = make([]int32, 0, nEdges)
	for i := 0; i < n; i++ {
		g.edgeRow[i] = int32(len(g.edgeLocs))
		for r := a.outStart[i]; r < a.outStart[i+1]; r++ {
			row := a.row(a.out[r])
			if len(row) == 0 {
				continue
			}
			g.edgeLocs = append(g.edgeLocs, a.outLocs[r])
			g.succOff = append(g.succOff, int32(len(g.succs)))
			slices.SortFunc(row, func(x, y edgeRef) int { return int(x.node - y.node) })
			for _, e := range row {
				g.succs = append(g.succs, e.node)
				g.succSlot = append(g.succSlot, inSlot[e.row])
			}
		}
	}
	g.EdgeCount = len(g.succs)
	g.edgeRow[n] = int32(len(g.edgeLocs))
	g.succOff = append(g.succOff, int32(len(g.succs)))
}

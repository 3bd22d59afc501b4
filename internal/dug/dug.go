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
// dense-ID runs of two offset tables, and the successor relation is a
// two-level CSR index (per-node sorted location keys with an (offset, len)
// row of successors each) that the solvers read in place; no table of the
// finished graph holds a pointer. The builder itself stages dependency
// triples in the adjacency arena, whose size a first SSA pass bounds, and
// orders them there with linear counting sorts instead of deduplicating
// through per-⟨node, loc⟩ maps. Its transient heap stays close to what it
// holds: no second copy of the triples exists, the bypass compacts the arena
// in place instead of growing it, and finalize releases the builder's
// tables as it fills the graph's.
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

// maxSpliceFanout bounds |preds|×|succs| of a bypass splice to avoid edge
// blowup.
const maxSpliceFanout = 256

// Graph is the def-use graph.
type Graph struct {
	Prog       *ir.Program
	PointCount int
	Phis       []Phi
	// Widen[n] marks per-location widening nodes: the solver widening
	// points (loop-head points, entries of recursive procedures and return
	// sites of recursive calls) and phis at loop heads. The def-use-chain
	// variant also marks every definition inside a CFG cycle.
	Widen []bool
	// Prio[n] is the worklist priority.
	Prio []int
	// EdgeCount is the number of ⟨from, loc, to⟩ triples.
	EdgeCount int
	// SplicedTriples counts triples removed+added by the bypass
	// optimization.
	SplicedTriples int

	// Defs[n]/Uses[n] are D̂/Û per node as slices, for callers that index
	// them; they stay nil until Views fills them (core.Result.Graph does).
	// The analysis reads DefsOf/UsesOf instead, so the per-node slice
	// headers, which the collector would scan, exist only on request.
	Defs, Uses [][]ir.LocID
	// The D̂/Û offset tables: node n's sorted D̂ is defLocs[defOff[n]:
	// defOff[n+1]], its Û likewise.
	defOff, useOff   []int32
	defLocs, useLocs []ir.LocID

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

// DefsOf returns D̂(n) (post-bypass), sorted. The slice aliases the graph.
func (g *Graph) DefsOf(n NodeID) []ir.LocID {
	lo, hi := g.defOff[n], g.defOff[n+1]
	return g.defLocs[lo:hi:hi]
}

// UsesOf returns Û(n) (post-bypass), sorted. The slice aliases the graph.
func (g *Graph) UsesOf(n NodeID) []ir.LocID {
	lo, hi := g.useOff[n], g.useOff[n+1]
	return g.useLocs[lo:hi:hi]
}

// Views fills Defs and Uses, unless they are filled already, and returns g
// (nil for nil).
func (g *Graph) Views() *Graph {
	if g == nil || g.Defs != nil {
		return g
	}
	n := g.NumNodes()
	g.Defs, g.Uses = make([][]ir.LocID, n), make([][]ir.LocID, n)
	for i := range n {
		g.Defs[i], g.Uses[i] = g.DefsOf(NodeID(i)), g.UsesOf(NodeID(i))
	}
	return g
}

// PhiOf returns the phi descriptor of a phi node.
func (g *Graph) PhiOf(n NodeID) Phi { return g.Phis[int(n)-g.PointCount] }

// Succs returns the dependency successors of n on location l (binary search
// over n's CSR row keys). Solvers iterating DefsOf(n) in order should prefer
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
// DefsOf(n) — and amortizes to O(1) per call where Succs pays a binary search.
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
		sd += len(g.DefsOf(NodeID(id)))
		su += len(g.UsesOf(NodeID(id)))
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

// pointSets holds the points' D̂ and Û, sorted, back to back in shared
// blocks, so that the small sets of a point cost neither an allocation nor a
// slice header each: point i's D̂ is the nd entries at off in block blk,
// its Û the nu entries after them. The sets stay as built; the bypass
// marks what it splices out instead of shrinking them.
type pointSets struct {
	blocks [][]ir.LocID
	at     []setRef
	// One bit per entry, numbered from at[i].bit over D̂(i) then Û(i):
	// pass marks the D̂ members that are linkage only, the bypass
	// candidates, and spliced the entries spliced out; nSpliced counts
	// those of D̂ and of Û.
	pass, spliced []uint64
	nbits         int32
	nSpliced      [2]int
}

type setRef struct{ blk, off, nd, nu, bit int32 }

func (s *pointSets) defs(i int) []ir.LocID {
	r := s.at[i]
	return s.blocks[r.blk][r.off : r.off+r.nd]
}

func (s *pointSets) uses(i int) []ir.LocID {
	r := s.at[i]
	return s.blocks[r.blk][r.off+r.nd : r.off+r.nd+r.nu]
}

// put stores point i's sets; p, the linkage-only members, is a subset of d.
func (s *pointSets) put(i int, d, u, p []ir.LocID) {
	need := len(d) + len(u)
	k := len(s.blocks) - 1
	if k < 0 || len(s.blocks[k])+need > cap(s.blocks[k]) {
		s.blocks = append(s.blocks, make([]ir.LocID, 0, max(1<<14, need)))
		k++
	}
	off := len(s.blocks[k])
	s.blocks[k] = append(append(s.blocks[k], d...), u...)
	s.at[i] = setRef{blk: int32(k), off: int32(off), nd: int32(len(d)), nu: int32(len(u)), bit: s.nbits}
	s.nbits += int32(need)
	for len(s.pass)*64 < int(s.nbits) {
		s.pass = append(s.pass, 0)
	}
	j := 0
	for _, l := range p {
		for d[j] < l {
			j++
		}
		setBit(s.pass, s.at[i].bit+int32(j))
	}
}

func setBit(bits []uint64, i int32)      { bits[i>>6] |= 1 << (i & 63) }
func clearBit(bits []uint64, i int32)    { bits[i>>6] &^= 1 << (i & 63) }
func hasBit(bits []uint64, i int32) bool { return bits[i>>6]&(1<<(i&63)) != 0 }

// relays reports whether l is a bypass candidate of point i.
func (s *pointSets) relays(i int, l ir.LocID) bool {
	j, ok := slices.BinarySearch(s.defs(i), l)
	return ok && hasBit(s.pass, s.at[i].bit+int32(j))
}

// spliceOut records that point i no longer relays, defines or uses the
// members of ls, a sorted subset of its candidates.
func (s *pointSets) spliceOut(i int, ls []ir.LocID) {
	r := s.at[i]
	for k, set := range [2][]ir.LocID{s.defs(i), s.uses(i)} {
		bit := r.bit + int32(k)*r.nd
		j := 0
		for _, l := range ls {
			for j < len(set) && set[j] < l {
				j++
			}
			if j < len(set) && set[j] == l {
				clearBit(s.pass, bit+int32(j))
				setBit(s.spliced, bit+int32(j))
				s.nSpliced[k]++
			}
		}
	}
}

// kept appends to dst the entries of D̂(i) (uses false) or Û(i) (uses true)
// that point i keeps after the bypass.
func (s *pointSets) kept(dst []ir.LocID, i int, uses bool) []ir.LocID {
	set, bit := s.defs(i), s.at[i].bit
	if uses {
		set, bit = s.uses(i), bit+s.at[i].nd
	}
	if s.spliced == nil {
		return append(dst, set...)
	}
	for j, l := range set {
		if !hasBit(s.spliced, bit+int32(j)) {
			dst = append(dst, l)
		}
	}
	return dst
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
	// sets holds the per-point D̂/Û and which D̂ members are linkage only
	// (the bypass candidates). A phi's D̂ and Û are its location and it
	// relays nothing, so the table stops at the points.
	sets pointSets
	// adj stages the dependency triples in its arena (see addEdge), nt of
	// them, until buildAdjacency sorts them into rows in place.
	adj adjacency
	nt  int
}

// newBuilder sizes the per-point tables and the per-procedure access sets.
func newBuilder(src *Source, opt Options) *builder {
	prog := src.Prog
	n := len(prog.Points)
	b := &builder{
		prog:   prog,
		src:    src,
		opt:    opt,
		g:      &Graph{Prog: prog, PointCount: n},
		access: make([][]ir.LocID, len(prog.Procs)),
		sets:   pointSets{at: make([]setRef, n)},
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
	b.stage("init")
	// SSA in two passes over the procedures. The first computes dominators
	// and places the phis, which numbers them, and bounds the triples the
	// second, the renaming, stages; with the linkage triples counted too,
	// the arena that stages and sorts them is allocated once, at its size.
	sc := newStageScratch(prog)
	size := 0
	b.linkInterproc(func(NodeID, ir.LocID, NodeID) { size++ })
	for _, pr := range prog.Procs {
		size += b.placePhis(pr, info, sc)
	}
	b.g.Phis = sc.takePhis()
	b.adj.refs = make([]edgeRef, stagingLen(size))
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
	sc.startRenaming()
	phis := b.g.Phis
	for _, pr := range prog.Procs {
		phis = b.rename(pr, info, sc, phis)
	}
	b.linkInterproc(b.addEdge)
	b.access = nil
	b.stage("staged")
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.buildAdjacency()
	b.stage("adjacency")
	opt.Budget.Checkpoint(rt.PhaseDUG)
	if opt.Bypass {
		b.bypass()
	}
	b.stage("bypass")
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.finalize(info)
	b.g.flushMetrics(opt.Metrics)
	return b.g
}

// stageHook, when non-nil, runs at the stage boundaries of BuildFrom and at
// the peak of finalize; a test reads the live heap there.
var stageHook func(stage string, b *builder)

func (b *builder) stage(name string) {
	if stageHook != nil {
		stageHook(name, b)
	}
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
	col.Add(metrics.CtrDUGDefs, int64(len(g.defLocs)))
	col.Add(metrics.CtrDUGUses, int64(len(g.useLocs)))
}

// initScratch carries the reusable buffers of initNode.
type initScratch struct {
	ownD, ownU []ir.LocID // command-local D̂/Û
	d, u, p    []ir.LocID // the node's final sets
	acc, tmp   []ir.LocID // union of several callees' access sets
	ret        []ir.LocID // return channels of a RetBind's callees
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
	b.sets.put(int(n), d, u, p)
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

// stageScratch carries the buffers of the two SSA passes. The point and
// location tables are indexed by global ID and hold local index+1 (0 =
// absent); each pass clears every entry it sets before returning.
type stageScratch struct {
	rpo  []int32 // point → RPO index in the current procedure
	lidx []int32 // location → index among the procedure's tracked locations
	locs []ir.LocID
	// Local location li's definition sites are sites[siteOff[li]:
	// siteOff[li+1]] (RPO indices, ascending).
	sites, siteOff []int32
	dom            ssa.Dom
	idf            ssa.IDF
	// phis collects one procedure's phis; procPhis keeps each procedure's
	// (the first pass only), and phisAt[i] counts those at RPO index i.
	phis     []Phi
	procPhis [][]Phi
	phisAt   []int32
	// The first pass keeps every procedure's dominator tree for the second:
	// tree[treeOff[j]:treeOff[j+1]] are the children (RPO indices) of the
	// procedure's RPO index j-base, base being the procedure's first slot.
	tree, treeOff []int32
	base          int
	// depth[i] bounds the undo log at RPO index i: the definitions and
	// phis on the dominator-tree path down to it.
	depth []int32
	// maxLocs and maxUndo size top and undo once for every procedure.
	maxLocs, maxUndo int
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

func newStageScratch(prog *ir.Program) *stageScratch {
	n := len(prog.Points)
	return &stageScratch{
		rpo:      make([]int32, n),
		procPhis: make([][]Phi, 0, len(prog.Procs)),
		tree:     make([]int32, 0, n),
		treeOff:  append(make([]int32, 0, n+1), 0),
	}
}

// takePhis returns every procedure's phis in procedure order, in one slice
// of their exact size.
func (sc *stageScratch) takePhis() []Phi {
	n := 0
	for _, ps := range sc.procPhis {
		n += len(ps)
	}
	all := make([]Phi, 0, n)
	for _, ps := range sc.procPhis {
		all = append(all, ps...)
	}
	sc.procPhis = nil
	return all
}

// startRenaming sizes the renaming tables for the largest procedure.
func (sc *stageScratch) startRenaming() {
	sc.top = make([]NodeID, 0, sc.maxLocs)
	sc.undo = make([]reaching, 0, sc.maxUndo)
	sc.base = 0
}

// placePhis is the first SSA pass over one procedure: it computes the
// dominator tree and places phis at the iterated dominance frontiers of the
// definition sites, in placement order (locations ascending, each
// location's sites in discovery order), which numbers them. It keeps the
// dominator tree for rename and returns a bound on the triples rename will
// stage: one per use of a defined location at a reachable point and one per
// phi per reachable CFG predecessor. It only reads the per-point tables,
// which are complete after initNodes.
func (b *builder) placePhis(pr *ir.Proc, info *cfg.Info, sc *stageScratch) int {
	if len(pr.Points) == 0 || pr.Entry == ir.None {
		return 0
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
		for _, l := range b.sets.defs(int(id)) {
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
		for _, l := range b.sets.defs(int(id)) {
			off[sc.lidx[l]]++
		}
	}
	for li := range locs {
		off[li+1] += off[li]
	}
	sites := slices.Grow(sc.sites[:0], int(off[len(locs)]))[:off[len(locs)]]
	for i, id := range order {
		for _, l := range b.sets.defs(int(id)) {
			li := sc.lidx[l] - 1
			sites[off[li]] = int32(i)
			off[li]++
		}
	}
	copy(off[1:], off[:len(locs)])
	off[0] = 0
	sc.locs, sc.sites, sc.siteOff = locs, sites, off

	// Phi placement, location by location.
	at := slices.Grow(sc.phisAt[:0], len(order))[:len(order)]
	clear(at)
	phis := sc.phis[:0]
	for li, l := range locs {
		for _, i := range sc.idf.Of(dom, sites[off[li]:off[li+1]]) {
			phis = append(phis, Phi{At: order[i], Loc: l})
			at[i]++
		}
	}
	sc.phis, sc.phisAt = phis, at
	sc.procPhis = append(sc.procPhis, slices.Clone(phis))

	depth := slices.Grow(sc.depth[:0], len(order))[:len(order)]
	size := 0
	for i, id := range order {
		sc.tree = append(sc.tree, dom.Children(i)...)
		sc.treeOff = append(sc.treeOff, int32(len(sc.tree)))
		for _, l := range b.sets.uses(int(id)) {
			if int(l) < len(sc.lidx) && sc.lidx[l] > 0 {
				size++
			}
		}
		for _, s := range b.prog.Point(id).Succs {
			if si := sc.rpo[s]; si > 0 {
				size += int(at[si-1])
			}
		}
		depth[i] = int32(len(b.sets.defs(int(id)))) + at[i]
		if i > 0 {
			depth[i] += depth[dom.Idom[i]]
		}
		sc.maxUndo = max(sc.maxUndo, int(depth[i]))
	}
	sc.depth = depth
	sc.maxLocs = max(sc.maxLocs, len(locs))

	for _, id := range order {
		sc.rpo[id] = 0
	}
	for _, l := range locs {
		sc.lidx[l] = 0
	}
	return size
}

// rename is the second SSA pass over one procedure: a single renaming walk
// over the dominator tree that placePhis kept, staging def→use dependency
// triples. phis starts with the procedure's phis, which take the next node
// IDs; rename returns the rest. Locations take local indices at their first
// definition on the walk: a use met before any definition of its location
// has no reaching definition either way.
func (b *builder) rename(pr *ir.Proc, info *cfg.Info, sc *stageScratch, phis []Phi) []Phi {
	if len(pr.Points) == 0 || pr.Entry == ir.None {
		return phis
	}
	order := info.ProcRPO(pr.ID)
	for i, id := range order {
		sc.rpo[id] = int32(i + 1)
	}
	tree, treeOff := sc.tree, sc.treeOff[sc.base:]
	sc.base += len(order)
	// The procedure's phis are the leading ones placed at its points. Local
	// phi k is node base+k; the chains list each RPO index's phis latest
	// first, as placePhis placed them.
	nOwn := 0
	for nOwn < len(phis) && sc.rpo[phis[nOwn].At] > 0 {
		nOwn++
	}
	own := phis[:nOwn]
	base := NodeID(b.g.NumNodes() - len(phis))
	head := slices.Grow(sc.phiHead[:0], len(order))[:len(order)]
	for i := range head {
		head[i] = -1
	}
	next := slices.Grow(sc.phiNext[:0], len(own))[:len(own)]
	for k, ph := range own {
		i := sc.rpo[ph.At] - 1
		next[k] = head[i]
		head[i] = int32(k)
	}
	sc.phiHead, sc.phiNext = head, next

	top, undo, locs := sc.top[:0], sc.undo[:0], sc.locs[:0]
	push := func(l ir.LocID, d NodeID) {
		li := sc.lidx[l] - 1
		if li < 0 {
			li = int32(len(top))
			sc.lidx[l] = li + 1
			top = append(top, noDef)
			locs = append(locs, l)
		}
		undo = append(undo, reaching{li, top[li]})
		top[li] = d
	}
	reach := func(l ir.LocID) NodeID {
		if int(l) < len(sc.lidx) {
			if li := sc.lidx[l] - 1; li >= 0 {
				return top[li]
			}
		}
		return noDef
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
			push(own[k].Loc, base+NodeID(k))
		}
		// Uses read the value reaching the point (after phis).
		for _, l := range b.sets.uses(int(pid)) {
			if d := reach(l); d != noDef {
				b.addEdge(d, l, n)
			}
		}
		// Defs kill for dominated points. (Weak definitions are also uses,
		// so their incoming value still flows — Definition 3's treatment of
		// may-kills.)
		for _, l := range b.sets.defs(int(pid)) {
			push(l, n)
		}
		// Feed phi inputs of CFG successors.
		for _, s := range b.prog.Point(pid).Succs {
			si := int(sc.rpo[s]) - 1
			if si < 0 {
				continue
			}
			for k := head[si]; k >= 0; k = next[k] {
				l := own[k].Loc
				if d := reach(l); d != noDef {
					b.addEdge(d, l, base+NodeID(k))
				}
			}
		}
		for _, c := range tree[treeOff[i]:treeOff[i+1]] {
			visit(int(c))
		}
		for len(undo) > mark {
			u := undo[len(undo)-1]
			top[u.li] = u.prev
			undo = undo[:len(undo)-1]
		}
	}
	visit(0)
	sc.locs = locs

	for _, id := range order {
		sc.rpo[id] = 0
	}
	for _, l := range locs {
		sc.lidx[l] = 0
	}
	return phis[len(own):]
}

// addEdge stages the dependency triple ⟨from, l, to⟩. Duplicates are fine —
// the staged triples are sorted and deduplicated once when the adjacency
// rows are built. Self-edges are kept: SSA renaming never produces them, but
// the bypass optimization can collapse a spurious interprocedural feedback
// cycle (callee effect → return site → another call site → callee) onto a
// single transfer node, and the solver must keep iterating that cycle
// exactly as the dense analysis does.
func (b *builder) addEdge(from NodeID, l ir.LocID, to NodeID) {
	b.adj.put(b.nt, triple{from: from, loc: l, to: to})
	b.nt++
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

// freeNode marks an arena entry that is spare capacity of the row before it.
// A row can take over the free entries that directly follow it, so no row
// header records a capacity.
const freeNode = NodeID(-1)

var freeRef = edgeRef{node: freeNode}

// span is one adjacency row: refs[off:off+len], followed by its free
// entries.
type span struct{ off, len int32 }

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
	// The rows below home lie in row order; the rows past it have moved.
	home int32
}

func (a *adjacency) row(s span) []edgeRef { return a.refs[s.off : s.off+s.len] }

// remove deletes the entry of n from row s by moving the last entry into its
// place; the last entry becomes free.
func (a *adjacency) remove(s *span, n NodeID) {
	row := a.row(*s)
	for i, e := range row {
		if e.node == n {
			last := len(row) - 1
			row[i] = row[last]
			row[last] = freeRef
			s.len--
			return
		}
	}
}

// add appends e to row s unless the row already holds e.node. A row takes
// the free entry that follows it; a full row doubles: in place when it ends
// the arena, else by moving to the arena's end, which leaves a hole.
func (a *adjacency) add(s *span, e edgeRef) {
	for _, x := range a.row(*s) {
		if x.node == e.node {
			return
		}
	}
	if end := int(s.off + s.len); end < len(a.refs) && a.refs[end].node == freeNode {
		a.refs[end] = e
		s.len++
		return
	}
	c := max(2*s.len, 4)
	a.reserve(c) // may compact, which moves s
	if int(s.off+s.len) != len(a.refs) {
		off := int32(len(a.refs))
		a.refs = append(a.refs, a.row(*s)...)
		s.off = off
	}
	end := int(s.off + c)
	a.refs = a.refs[:end]
	a.refs[s.off+s.len] = e
	s.len++
	for i := int(s.off + s.len); i < end; i++ {
		a.refs[i] = freeRef
	}
}

// reserve makes room for c more entries at the arena's end. When the arena is
// full it is first compacted in place; it is reallocated only if the live
// rows would still fill more than three quarters of it.
func (a *adjacency) reserve(c int32) {
	if len(a.refs)+int(c) <= cap(a.refs) {
		return
	}
	a.compact()
	if need := len(a.refs) + int(c); need > cap(a.refs)*3/4 {
		refs := make([]edgeRef, len(a.refs), max(2*cap(a.refs), 2*need))
		copy(refs, a.refs)
		a.refs = refs
	}
}

// compact slides every row with entries to the arena's front, giving up
// its free entries; empty rows give up their space and restart past the
// arena's end. The rows below home lie in row order, so one pass over the
// row tables slides them. The rows that moved past home lie in the order
// they moved: a moved row's first entry is marked in place by the node -2 -
// the row's id, whose real node waits in the row's off field, and one scan
// past home finds them in arena order, since every other entry there, dead
// or alive, names a real node or is free. The slid home rows end the new
// home.
func (a *adjacency) compact() {
	w := int32(0)
	slide := func(s *span, from int32) {
		if w != from {
			for i := range s.len {
				a.refs[w+i] = a.refs[from+i]
			}
		}
		s.off = w
		w += s.len
	}
	// Sliding a home row writes below it only, so the same pass marks the
	// moved rows.
	restart := int32(len(a.refs))
	for t, rows := range [2][]span{a.out, a.in} {
		for r := range rows {
			switch s := &rows[r]; {
			case s.len == 0:
				*s = span{off: restart}
			case s.off < a.home:
				slide(s, s.off)
			default:
				first := &a.refs[s.off]
				s.off, first.node = int32(first.node), NodeID(-2-t*len(a.out)-r)
			}
		}
	}
	home := w
	for p := a.home; p < int32(len(a.refs)); {
		id := -2 - int(a.refs[p].node)
		if id < 0 {
			p++
			continue
		}
		s := a.span(id)
		a.refs[p].node = NodeID(s.off)
		slide(s, p)
		p += s.len
	}
	a.home = home
	a.refs = a.refs[:w]
}

// span returns the row with the given id: out rows first, then in rows.
func (a *adjacency) span(id int) *span {
	if id < len(a.out) {
		return &a.out[id]
	}
	return &a.in[id-len(a.out)]
}

// stagingLen is the arena length that stages and sorts t triples: staged,
// two triples take three entries; every sorting pass writes one entry per
// triple, and the first must not overlap the staged triples. With the bypass
// on, what the rows leave of it (a quarter) is their room to grow.
func stagingLen(t int) int { return 3*((t+1)/2) + t }

// put stages triple i: triples 2j and 2j+1 share entries 3j to 3j+2, the
// third holding both targets.
func (a *adjacency) put(i int, t triple) {
	e := a.refs[3*(i>>1) : 3*(i>>1)+3]
	if i&1 == 0 {
		e[0] = edgeRef{node: t.from, row: int32(t.loc)}
		e[2].node = t.to
	} else {
		e[1] = edgeRef{node: t.from, row: int32(t.loc)}
		e[2].row = int32(t.to)
	}
}

// staged returns the staged triple i.
func (a *adjacency) staged(i int) triple {
	e := a.refs[3*(i>>1) : 3*(i>>1)+3]
	if i&1 == 0 {
		return triple{from: e[0].node, loc: ir.LocID(e[0].row), to: e[2].node}
	}
	return triple{from: e[1].node, loc: ir.LocID(e[1].row), to: NodeID(e[2].row)}
}

// prefixSums turns per-key counts at cnt[k+1] into bucket starts at cnt[k].
func prefixSums(cnt []int32) {
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
}

// buildAdjacency sorts the staged triples into adjacency rows inside the
// arena, with three linear, stable counting sorts over the exact key ranges
// (node count and location count): by to, by loc, by from. Each pass writes
// one entry per triple, the key it sorts by being implied by the bucket, so
// the passes alternate between arena regions of t entries: staged [0, 1.5t)
// → [len-t, len) → [0, t) → [t, 2t). The pass by from reads the triples in
// (loc, to) order, so it also numbers the rows: each new (loc, to) pair is
// the next in row of to, and each from's first triple on a location starts
// an out row. The deduplicated runs of equal (from, loc) are the out rows,
// whose entries land in [0, m) in final form (to, in row); a last pass over
// them fills the in rows in [m, 2m), each in from order. Every table is
// sized exactly, and the rows are full spans, so a bypass append relocates
// the row instead of clobbering a neighbor.
func (b *builder) buildAdjacency() {
	a := &b.adj
	n := b.g.NumNodes()
	t := b.nt
	refs := a.refs
	nLocs := 0
	// By to: t1 holds (from, loc); node v's bucket ends at end[v].
	end := make([]int32, n+1)
	for i := range t {
		tr := a.staged(i)
		end[tr.to+1]++
		nLocs = max(nLocs, int(tr.loc)+1)
	}
	prefixSums(end)
	t1 := refs[len(refs)-t:]
	for i := range t {
		tr := a.staged(i)
		t1[end[tr.to]] = edgeRef{node: tr.from, row: int32(tr.loc)}
		end[tr.to]++
	}
	// By loc: t2 holds (from, to); location l's bucket ends at locEnd[l].
	locEnd := make([]int32, nLocs+1)
	for _, e := range t1 {
		locEnd[e.row+1]++
	}
	prefixSums(locEnd)
	t2 := refs[:t]
	lo := int32(0)
	for v := range n {
		for _, e := range t1[lo:end[v]] {
			t2[locEnd[e.row]] = edgeRef{node: e.node, row: int32(v)}
			locEnd[e.row]++
		}
		lo = end[v]
	}
	// By from, numbering the in rows and the out rows: t3 holds (to, in
	// row), the in row complemented where the entry starts an out row. The
	// triples come loc by loc, so last[f] == l+1 tells that from f has met
	// l already.
	clear(end)
	inStart := make([]int32, n+1)
	outStart := make([]int32, n+1)
	last := make([]int32, n)
	lo = 0
	for l := range nLocs {
		for p := lo; p < locEnd[l]; p++ {
			e := t2[p]
			end[e.node+1]++
			if p == lo || e.row != t2[p-1].row {
				inStart[e.row+1]++
			}
			if last[e.node] != int32(l+1) {
				last[e.node] = int32(l + 1)
				outStart[e.node+1]++
			}
		}
		lo = locEnd[l]
	}
	prefixSums(end)
	prefixSums(inStart)
	prefixSums(outStart)
	a.inLocs, a.in = make([]ir.LocID, inStart[n]), make([]span, inStart[n])
	a.outLocs, a.out = make([]ir.LocID, outStart[n]), make([]span, outStart[n])
	clear(last)
	t3 := refs[t : 2*t]
	r := int32(0)
	lo = 0
	for l := range nLocs {
		for p := lo; p < locEnd[l]; p++ {
			e := t2[p]
			if p == lo || e.row != t2[p-1].row {
				r = inStart[e.row]
				inStart[e.row]++
				a.inLocs[r] = ir.LocID(l)
			}
			mark := r
			if last[e.node] != int32(l+1) {
				last[e.node] = int32(l + 1)
				mark = ^r
			}
			t3[end[e.node]] = edgeRef{node: NodeID(e.row), row: mark}
			end[e.node]++
		}
		lo = locEnd[l]
	}
	copy(inStart[1:], inStart[:n])
	inStart[0] = 0
	a.inStart, a.outStart = inStart, outStart
	m := a.carveOut(t3, end)
	// The in rows follow the out entries, and each takes its entries in out
	// entry order, that is in from order.
	off := int32(m)
	for r := range a.in {
		s := &a.in[r]
		s.off, off, s.len = off, off+s.len, 0
	}
	for v := range n {
		for r := a.outStart[v]; r < a.outStart[v+1]; r++ {
			for _, e := range a.row(a.out[r]) {
				s := &a.in[e.row]
				refs[s.off+s.len] = edgeRef{node: NodeID(v), row: r}
				s.len++
			}
		}
	}
	a.refs, a.home = refs[:2*m], int32(2*m)
}

// carveOut cuts t3, the triples by (from, loc, to) as (to, in row) entries
// where node v's end at end[v] and each out row's first is marked, into the
// out rows, dropping duplicates. Out entry k lands in refs[k], which trails
// the entry it was read from; the in rows count their entries. It returns
// the entry count.
func (a *adjacency) carveOut(t3 []edgeRef, end []int32) int {
	k, r := int32(0), int32(-1)
	lo := int32(0)
	for v := range end[:len(end)-1] {
		for p := lo; p < end[v]; p++ {
			e := t3[p]
			if e.row < 0 {
				e.row = ^e.row
				r++
				a.outLocs[r] = a.inLocs[e.row]
				a.out[r].off = k
			} else if prev := t3[p-1]; e.node == prev.node && (e.row == prev.row || e.row == ^prev.row) {
				continue // a duplicate triple
			}
			a.out[r].len++
			a.in[e.row].len++
			a.refs[k] = e
			k++
		}
		lo = end[v]
	}
	return int(k)
}

// sortByNode orders a row by node. Most rows are short, and an insertion
// sort with the comparison inline beats the generic sort there.
func sortByNode(row []edgeRef) {
	if len(row) > 16 {
		slices.SortFunc(row, func(x, y edgeRef) int { return int(x.node - y.node) })
		return
	}
	for i := 1; i < len(row); i++ {
		e := row[i]
		j := i
		for ; j > 0 && row[j-1].node > e.node; j-- {
			row[j] = row[j-1]
		}
		row[j] = e
	}
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
	sets := &b.sets
	points := b.g.PointCount
	sets.spliced = make([]uint64, len(sets.pass))
	work := make([]NodeID, 0, points)
	inWork := make([]bool, points)
	for n := range points {
		r := sets.at[n]
		for j := range r.nd {
			if hasBit(sets.pass, r.bit+j) {
				work = append(work, NodeID(n))
				inWork[n] = true
				break
			}
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
		// The candidates are ascending, and none leaves the candidates
		// before the loop ends, so n's own rows are found by two cursors.
		bit := sets.at[n].bit
		for j, l := range sets.defs(int(n)) {
			if !hasBit(sets.pass, bit+int32(j)) {
				continue
			}
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
			if len(preds)*len(succs) > maxSpliceFanout {
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
			// Phis (past the point table) relay nothing; n is neither a pred
			// nor a succ.
			requeue := func(m NodeID) {
				if int(m) < points && !inWork[m] && sets.relays(int(m), l) {
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
			sets.spliceOut(int(n), spliced)
		}
	}
}

// finalize packs the access sets into the offset tables and builds the Acc
// slots and the CSR successor index, releasing each builder table once it
// has been read, so that the graph grows while the builder shrinks. The
// non-empty in rows of a node are its distinct in-edge locations in
// ascending order, so they number its slots; every out entry names its
// partner in row, and so its slot.
func (b *builder) finalize(info *cfg.Info) {
	g := b.g
	n := g.NumNodes()
	g.Prio = make([]int, n)
	totD := len(g.Phis) - b.sets.nSpliced[0]
	totU := len(g.Phis) - b.sets.nSpliced[1]
	for _, r := range b.sets.at {
		totD += int(r.nd)
		totU += int(r.nu)
	}
	g.defOff, g.defLocs = make([]int32, n+1), make([]ir.LocID, 0, totD)
	g.useOff, g.useLocs = make([]int32, n+1), make([]ir.LocID, 0, totU)
	for i := 0; i < n; i++ {
		if i < g.PointCount {
			g.defLocs = b.sets.kept(g.defLocs, i, false)
			g.useLocs = b.sets.kept(g.useLocs, i, true)
			g.Prio[i] = info.Prio[i] * 2
		} else {
			ph := g.Phis[i-g.PointCount]
			g.defLocs = append(g.defLocs, ph.Loc)
			g.useLocs = append(g.useLocs, ph.Loc)
			g.Prio[i] = info.Prio[ph.At]*2 - 1
		}
		g.defOff[i+1] = int32(len(g.defLocs))
		g.useOff[i+1] = int32(len(g.useLocs))
	}
	b.sets = pointSets{}
	a := &b.adj
	// Each non-empty in row's off field now holds its Acc slot, and then
	// each out entry's row field the slot of its partner; the in rows are
	// done.
	nSlots := 0
	for _, row := range a.in {
		if row.len > 0 {
			nSlots++
		}
	}
	g.accOff = make([]int32, n+1)
	g.accLocs = make([]ir.LocID, 0, nSlots)
	for i := 0; i < n; i++ {
		g.accOff[i] = int32(len(g.accLocs))
		for r := a.inStart[i]; r < a.inStart[i+1]; r++ {
			if a.in[r].len > 0 {
				a.in[r].off = int32(len(g.accLocs))
				g.accLocs = append(g.accLocs, a.inLocs[r])
			}
		}
	}
	g.accOff[n] = int32(len(g.accLocs))
	var nLocs, nEdges int
	for _, row := range a.out {
		if row.len > 0 {
			nLocs++
			nEdges += int(row.len)
			for i := range a.row(row) {
				e := &a.refs[row.off+int32(i)]
				e.row = a.in[e.row].off
			}
		}
	}
	a.in, a.inLocs, a.inStart = nil, nil, nil
	g.edgeLocs = make([]ir.LocID, 0, nLocs)
	g.edgeRow = make([]int32, n+1)
	g.succOff = make([]int32, 0, nLocs+1)
	g.succs = make([]NodeID, 0, nEdges)
	g.succSlot = make([]int32, 0, nEdges)
	b.stage("finalize")
	for i := 0; i < n; i++ {
		g.edgeRow[i] = int32(len(g.edgeLocs))
		for r := a.outStart[i]; r < a.outStart[i+1]; r++ {
			row := a.row(a.out[r])
			if len(row) == 0 {
				continue
			}
			g.edgeLocs = append(g.edgeLocs, a.outLocs[r])
			g.succOff = append(g.succOff, int32(len(g.succs)))
			sortByNode(row)
			for _, e := range row {
				g.succs = append(g.succs, e.node)
				g.succSlot = append(g.succSlot, e.row)
			}
		}
	}
	g.EdgeCount = len(g.succs)
	g.edgeRow[n] = int32(len(g.edgeLocs))
	g.succOff = append(g.succOff, int32(len(g.succs)))
}

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
// builder itself stages dependency triples into a flat slice and sorts them
// once instead of deduplicating through per-⟨node, loc⟩ maps.
package dug

import (
	"math"
	"slices"
	"sync"

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

	partOnce sync.Once
	part     *Partition
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

// OutCursor walks one node's successor rows in ascending location order.
// Seek must be called with non-decreasing locations — exactly the order of
// Defs[n] — and amortizes to O(1) per call where Succs pays a binary search.
type OutCursor struct {
	locs  []ir.LocID
	off   []int32
	succs []NodeID
	i     int
}

// Out returns a successor cursor for n.
func (g *Graph) Out(n NodeID) OutCursor {
	lo, hi := g.edgeRow[n], g.edgeRow[n+1]
	return OutCursor{locs: g.edgeLocs[lo:hi], off: g.succOff[lo : hi+1], succs: g.succs}
}

// Seek advances to location l and returns its successor row (nil if none).
func (c *OutCursor) Seek(l ir.LocID) []NodeID {
	for c.i < len(c.locs) && c.locs[c.i] < l {
		c.i++
	}
	if c.i < len(c.locs) && c.locs[c.i] == l {
		return c.succs[c.off[c.i]:c.off[c.i+1]]
	}
	return nil
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
	s := &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle}
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

// triple is one staged dependency edge ⟨from, loc, to⟩. Inside a procedure's
// staging, negative node IDs name the procedure's own phis (see phiRef).
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
	// defs/uses/pass are the per-node D̂/Û/linkage-only sets as sorted
	// deduplicated slices (pass members are the bypass candidates). The
	// bypass optimization shrinks them in place.
	defs [][]ir.LocID
	uses [][]ir.LocID
	pass [][]ir.LocID
	// triples stages dependency edges flat, duplicates included; one sort
	// in buildAdjacency replaces the per-edge map dedup of earlier layouts.
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
		g:      &Graph{Prog: prog, PointCount: n, Widen: make([]bool, n)},
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
	// Point nodes inherit the solver widening points (loop heads, recursive
	// entries and return sites); phis get theirs during placement. Widening
	// nodes are also pinned by the bypass optimization so that every
	// dependency cycle keeps a widening point.
	copy(b.g.Widen, info.Widen)
	// Stage the per-procedure SSA passes (dominators, phi placement,
	// renaming), then merge in procedure order, which assigns phi node IDs.
	staged := make([]*procBuild, len(prog.Procs))
	var sc stageScratch
	for i, pr := range prog.Procs {
		staged[i] = b.stageProc(pr, &sc)
	}
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.mergeProcs(staged)
	opt.Budget.Checkpoint(rt.PhaseDUG)
	b.linkInterproc()
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

// procBuild is the staged output of one procedure's SSA pass. Phi nodes are
// procedure-local (index into phis); edges reference them through negative
// NodeIDs until the merge assigns global IDs.
type procBuild struct {
	recursive bool
	phis      []Phi
	phiWiden  []bool
	edges     []triple
}

// phiRef encodes local phi index i as a negative NodeID placeholder.
func phiRef(i int) NodeID { return NodeID(-1 - i) }

// noDef marks a location with no reaching definition during renaming.
const noDef = NodeID(math.MaxInt32)

// stageScratch carries the dense tables of stageProc. The
// point and location tables are indexed by global ID and hold local index+1
// (0 = absent); stageProc clears every entry it sets before returning.
type stageScratch struct {
	rpo  []int32 // point → RPO index in the current procedure
	lidx []int32 // location → index among the procedure's defined locations
	keys []uint64
	locs []ir.LocID
	// sites is a scratch list of one location's definition sites.
	sites []int
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
// walk over the dominator tree collecting def→use dependency edges. It only
// reads the per-point tables, which are complete after initNodes.
func (b *builder) stageProc(pr *ir.Proc, sc *stageScratch) *procBuild {
	if len(pr.Points) == 0 || pr.Entry == ir.None {
		return nil
	}
	dom := ssa.Compute(b.prog, pr)
	heads := cfg.LoopHeads(b.prog, pr)
	pb := &procBuild{recursive: b.src.CG.InCycle(pr.ID)}

	if len(sc.rpo) < len(b.prog.Points) {
		sc.rpo = make([]int32, len(b.prog.Points))
	}
	for i, id := range dom.Order {
		sc.rpo[id] = int32(i + 1)
	}
	// Every (location, RPO index) definition, sorted: the groups are the
	// tracked locations in ascending order, each with its definition sites
	// in ascending RPO order.
	keys := sc.keys[:0]
	for i, id := range dom.Order {
		for _, l := range b.defs[id] {
			keys = append(keys, uint64(uint32(l))<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	sc.keys = keys
	if len(keys) > 0 {
		if need := int(keys[len(keys)-1]>>32) + 1; len(sc.lidx) < need {
			sc.lidx = make([]int32, need)
		}
	}

	// Phi placement, location by location.
	head := slices.Grow(sc.phiHead[:0], len(dom.Order))[:len(dom.Order)]
	for i := range head {
		head[i] = -1
	}
	locs, next := sc.locs[:0], sc.phiNext[:0]
	idf := dom.NewIDF()
	for j := 0; j < len(keys); {
		l := ir.LocID(keys[j] >> 32)
		sites := sc.sites[:0]
		for ; j < len(keys) && ir.LocID(keys[j]>>32) == l; j++ {
			sites = append(sites, int(uint32(keys[j])))
		}
		sc.sites = sites
		locs = append(locs, l)
		sc.lidx[l] = int32(len(locs))
		for _, i := range idf.Of(sites) {
			pid := dom.Order[i]
			pb.phis = append(pb.phis, Phi{At: pid, Loc: l})
			pb.phiWiden = append(pb.phiWiden, heads[pid])
			next = append(next, head[i])
			head[i] = int32(len(next) - 1)
		}
	}
	sc.locs, sc.phiHead, sc.phiNext = locs, head, next

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
		pid := dom.Order[i]
		n := NodeID(pid)
		// Phis first: they join the incoming paths and dominate the point's
		// own use/def.
		for k := head[i]; k >= 0; k = next[k] {
			push(sc.lidx[pb.phis[k].Loc]-1, phiRef(int(k)))
		}
		// Uses read the value reaching the point (after phis).
		for _, l := range b.uses[n] {
			if li := local(l); li >= 0 && top[li] != noDef {
				pb.edges = append(pb.edges, triple{top[li], l, n})
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
				l := pb.phis[k].Loc
				if d := top[sc.lidx[l]-1]; d != noDef {
					pb.edges = append(pb.edges, triple{d, l, phiRef(int(k))})
				}
			}
		}
		for _, c := range dom.Children[i] {
			visit(c)
		}
		for len(undo) > mark {
			u := undo[len(undo)-1]
			top[u.li] = u.prev
			undo = undo[:len(undo)-1]
		}
	}
	visit(0)
	sc.top, sc.undo = top, undo

	for _, id := range dom.Order {
		sc.rpo[id] = 0
	}
	for _, l := range locs {
		sc.lidx[l] = 0
	}
	return pb
}

// mergeProcs folds the staged procedures into the builder state in
// procedure order, which numbers the phis.
func (b *builder) mergeProcs(staged []*procBuild) {
	nPhis, nEdges := 0, 0
	for _, pb := range staged {
		if pb != nil {
			nPhis += len(pb.phis)
			nEdges += len(pb.edges)
		}
	}
	b.g.Phis = make([]Phi, 0, nPhis)
	b.g.Widen = append(b.g.Widen, make([]bool, nPhis)...)
	b.defs = append(b.defs, make([][]ir.LocID, nPhis)...)
	b.uses = append(b.uses, make([][]ir.LocID, nPhis)...)
	b.pass = append(b.pass, make([][]ir.LocID, nPhis)...)
	b.triples = slices.Grow(b.triples, nEdges)
	// One backing array carries both singleton sets of every phi; bypass
	// never touches phi sets (their pass set is empty).
	sets := make([]ir.LocID, 2*nPhis)
	for i, pr := range b.prog.Procs {
		pb := staged[i]
		if pb == nil {
			continue
		}
		if pb.recursive {
			b.g.Widen[pr.Entry] = true
		}
		base := NodeID(b.g.PointCount + len(b.g.Phis))
		for k, ph := range pb.phis {
			n := base + NodeID(k)
			j := 2 * (len(b.g.Phis) + k)
			sets[j], sets[j+1] = ph.Loc, ph.Loc
			b.defs[n] = sets[j : j+1 : j+1]
			b.uses[n] = sets[j+1 : j+2 : j+2]
			b.g.Widen[n] = pb.phiWiden[k]
		}
		b.g.Phis = append(b.g.Phis, pb.phis...)
		for _, e := range pb.edges {
			if e.from < 0 {
				e.from = base - 1 - e.from
			}
			if e.to < 0 {
				e.to = base - 1 - e.to
			}
			b.triples = append(b.triples, e)
		}
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

// linkInterproc adds the call→entry and exit→return-site dependencies.
func (b *builder) linkInterproc() {
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
				b.addEdge(NodeID(pt.ID), l, entry)
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
						b.addEdge(NodeID(pt.ID), l, NodeID(rs))
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
				b.addEdge(exit, l, NodeID(rs))
			}
			if rl != ir.None {
				b.addEdge(exit, rl, NodeID(rs))
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

// adjacency is the graph under construction: per node, sorted location keys
// with one row of neighbors each, in both directions. Node n's out-keys are
// outLocs[outStart[n]:outStart[n+1]] and its rows the same range of outRows;
// likewise for in. The bypass optimization edits row contents but
// (invariant) never needs a new key — a splice only reconnects nodes that
// already carry edges on the spliced location — so row indices are stable.
type adjacency struct {
	outStart, inStart []int32
	outLocs, inLocs   []ir.LocID
	outRows, inRows   [][]edgeRef
}

// buildAdjacency turns the staged triples into adjacency rows: counting-sort
// by from-node, sort each node's group by packed (loc, to) keys and
// deduplicate, carve the out rows, then counting-sort the survivors by
// to-node for the in rows, linking each entry to its partner row. Rows are
// views into exact-size backing arrays, full-cap'd so a bypass append copies
// out instead of clobbering a neighbor.
func (b *builder) buildAdjacency() {
	n := b.g.NumNodes()
	ts := b.triples
	b.triples = nil
	a := &b.adj

	// Group by from-node, then sort and deduplicate each group into ded
	// (reusing the staging array): ded is sorted by (from, loc, to).
	start := make([]int32, n+1)
	for _, t := range ts {
		start[t.from+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	grouped := make([]triple, len(ts))
	fill := slices.Clone(start[:n])
	for _, t := range ts {
		grouped[fill[t.from]] = t
		fill[t.from]++
	}
	ded := ts[:0]
	var keys []uint64
	nRows := 0
	for i := 0; i < n; i++ {
		g := grouped[start[i]:start[i+1]]
		if len(g) == 0 {
			continue
		}
		keys = keys[:0]
		for _, t := range g {
			keys = append(keys, uint64(uint32(t.loc))<<32|uint64(uint32(t.to)))
		}
		slices.Sort(keys)
		for j, k := range keys {
			if j > 0 && k == keys[j-1] {
				continue
			}
			l := ir.LocID(k >> 32)
			if j == 0 || l != ir.LocID(keys[j-1]>>32) {
				nRows++
			}
			ded = append(ded, triple{from: NodeID(i), loc: l, to: NodeID(uint32(k))})
		}
	}
	grouped = nil
	m := len(ded)

	// Out rows: the runs of equal (from, loc) in ded; outBack[k] is ded[k].
	outBack := make([]edgeRef, m)
	rowOf := make([]int32, m) // out row of ded[k]
	a.outStart = make([]int32, n+1)
	a.outLocs = make([]ir.LocID, 0, nRows)
	a.outRows = make([][]edgeRef, 0, nRows)
	for k := 0; k < m; {
		t := ded[k]
		r := int32(len(a.outLocs))
		e := k
		for ; e < m && ded[e].from == t.from && ded[e].loc == t.loc; e++ {
			outBack[e].node = ded[e].to
			rowOf[e] = r
		}
		a.outLocs = append(a.outLocs, t.loc)
		a.outRows = append(a.outRows, outBack[k:e:e])
		a.outStart[t.from+1]++
		k = e
	}
	for i := 0; i < n; i++ {
		a.outStart[i+1] += a.outStart[i]
	}

	// In rows: group the ded indices by to-node (stable, so each group is in
	// from order), then sort each group by (loc, index) — within one
	// location, index order is from order.
	clear(start)
	for _, t := range ded {
		start[t.to+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	byTo := make([]int32, m)
	copy(fill, start[:n])
	for k, t := range ded {
		byTo[fill[t.to]] = int32(k)
		fill[t.to]++
	}
	inBack := make([]edgeRef, m)
	a.inStart = make([]int32, n+1)
	a.inLocs = make([]ir.LocID, 0, nRows)
	a.inRows = make([][]edgeRef, 0, nRows)
	j := 0
	for i := 0; i < n; i++ {
		g := byTo[start[i]:start[i+1]]
		if len(g) == 0 {
			a.inStart[i+1] = int32(len(a.inLocs))
			continue
		}
		keys = keys[:0]
		for _, k := range g {
			keys = append(keys, uint64(uint32(ded[k].loc))<<32|uint64(k))
		}
		slices.Sort(keys)
		rowStart := j
		for x, key := range keys {
			l, k := ir.LocID(key>>32), uint32(key)
			if x > 0 && l != ir.LocID(keys[x-1]>>32) {
				a.inRows = append(a.inRows, inBack[rowStart:j:j])
				rowStart = j
			}
			if x == 0 || l != ir.LocID(keys[x-1]>>32) {
				a.inLocs = append(a.inLocs, l)
			}
			inBack[j] = edgeRef{node: ded[k].from, row: rowOf[k]}
			outBack[k].row = int32(len(a.inLocs) - 1)
			j++
		}
		a.inRows = append(a.inRows, inBack[rowStart:j:j])
		a.inStart[i+1] = int32(len(a.inLocs))
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

func hasRef(row []edgeRef, n NodeID) bool {
	for _, e := range row {
		if e.node == n {
			return true
		}
	}
	return false
}

// removeRef deletes the entry of n by moving the last entry into its place.
func removeRef(row []edgeRef, n NodeID) []edgeRef {
	for i, e := range row {
		if e.node == n {
			row[i] = row[len(row)-1]
			return row[:len(row)-1]
		}
	}
	return row
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
				for _, p := range a.inRows[inRow] {
					if p.node != n {
						preds = append(preds, p)
					}
				}
			}
			if outRow >= 0 {
				for _, s := range a.outRows[outRow] {
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
				row := removeRef(a.outRows[p.row], n)
				for _, s := range succs {
					if !hasRef(row, s.node) {
						row = append(row, s)
					}
				}
				a.outRows[p.row] = row
			}
			for _, s := range succs {
				row := removeRef(a.inRows[s.row], n)
				for _, p := range preds {
					if !hasRef(row, p.node) {
						row = append(row, p)
					}
				}
				a.inRows[s.row] = row
			}
			// The relay's own rows are now fully dead (all preds, succs, and
			// any self-loop removed).
			if inRow >= 0 {
				a.inRows[inRow] = a.inRows[inRow][:0]
			}
			if outRow >= 0 {
				a.outRows[outRow] = a.outRows[outRow][:0]
			}
			requeue := func(m NodeID) {
				if !inWork[m] && ir.LocsContain(b.pass[m], l) {
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
// the CSR successor index.
func (b *builder) finalize(info *cfg.Info) {
	g := b.g
	n := g.NumNodes()
	g.Defs = make([][]ir.LocID, n)
	g.Uses = make([][]ir.LocID, n)
	g.Prio = make([]int, n)
	var totD, totU int
	for i := 0; i < n; i++ {
		totD += len(b.defs[i])
		totU += len(b.uses[i])
	}
	defBack := make([]ir.LocID, 0, totD)
	useBack := make([]ir.LocID, 0, totU)
	for i := 0; i < n; i++ {
		if len(b.defs[i]) > 0 {
			off := len(defBack)
			defBack = append(defBack, b.defs[i]...)
			g.Defs[i] = defBack[off:len(defBack):len(defBack)]
		}
		if len(b.uses[i]) > 0 {
			off := len(useBack)
			useBack = append(useBack, b.uses[i]...)
			g.Uses[i] = useBack[off:len(useBack):len(useBack)]
		}
		if i < g.PointCount {
			g.Prio[i] = info.Prio[i] * 2
		} else {
			g.Prio[i] = info.Prio[g.Phis[i-g.PointCount].At]*2 - 1
		}
	}
	a := &b.adj
	var nLocs, nEdges int
	for _, row := range a.outRows {
		if len(row) > 0 {
			nLocs++
			nEdges += len(row)
		}
	}
	g.edgeLocs = make([]ir.LocID, 0, nLocs)
	g.edgeRow = make([]int32, n+1)
	g.succOff = make([]int32, 0, nLocs+1)
	g.succs = make([]NodeID, 0, nEdges)
	for i := 0; i < n; i++ {
		g.edgeRow[i] = int32(len(g.edgeLocs))
		for r := a.outStart[i]; r < a.outStart[i+1]; r++ {
			row := a.outRows[r]
			if len(row) == 0 {
				continue
			}
			g.edgeLocs = append(g.edgeLocs, a.outLocs[r])
			g.succOff = append(g.succOff, int32(len(g.succs)))
			off := len(g.succs)
			for _, e := range row {
				g.succs = append(g.succs, e.node)
			}
			slices.Sort(g.succs[off:])
		}
	}
	g.EdgeCount = len(g.succs)
	g.edgeRow[n] = int32(len(g.edgeLocs))
	g.succOff = append(g.succOff, int32(len(g.succs)))
}

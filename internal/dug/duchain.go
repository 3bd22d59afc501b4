// Conventional def-use chains (Section 2.6 / Example 5): the propagation
// relation where only *always*-kills block a chain — may-definitions are
// passed over rather than re-joined. The paper shows this relation is
// strictly less precise than its data dependencies even when the def/use
// approximation is safe; BuildDefUseChains exists to reproduce that
// comparison (experiment E6 in DESIGN.md).

package dug

import (
	"math/bits"
	"slices"

	"sparrow/internal/cfg"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

// BuildDefUseChains constructs a dependency graph over conventional
// def-use chains: an edge d -(l)-> u exists when a CFG path from d to u
// avoids every always-kill of l. There are no phi nodes; uses join all
// reaching definitions directly.
func BuildDefUseChains(prog *ir.Program, pre *prean.Result, opt Options) *Graph {
	return BuildDefUseChainsFrom(IntervalSource(prog, pre), opt)
}

// BuildDefUseChainsFrom is the Source-generic variant; src.AlwaysKills must
// be set.
func BuildDefUseChainsFrom(src *Source, opt Options) *Graph {
	prog := src.Prog
	if src.AlwaysKills == nil {
		panic("dug: BuildDefUseChains requires Source.AlwaysKills")
	}
	b := newBuilder(src, opt)
	b.initNodes()
	info := cfg.Compute(prog, src.CG, src.Callees)
	b.g.Widen = slices.Clone(info.Widen)
	// The chains are not counted ahead, so they are collected first and then
	// staged in an arena of their size.
	var ts []triple
	add := func(from NodeID, l ir.LocID, to NodeID) { ts = append(ts, triple{from: from, loc: l, to: to}) }
	for _, pr := range prog.Procs {
		b.buildProcChains(pr, info, add)
	}
	b.linkInterproc(add)
	b.adj.refs = make([]edgeRef, stagingLen(len(ts)))
	for _, t := range ts {
		b.addEdge(t.from, t.loc, t.to)
	}
	b.buildAdjacency()
	if opt.Bypass {
		b.bypass()
	}
	b.finalize(info)
	b.g.flushMetrics(opt.Metrics)
	return b.g
}

// buildProcChains runs per-location reaching-definitions over one procedure
// and passes a def→use edge for every reaching definition to add.
func (b *builder) buildProcChains(pr *ir.Proc, info *cfg.Info, add func(from NodeID, l ir.LocID, to NodeID)) {
	if len(pr.Points) == 0 || pr.Entry == ir.None {
		return
	}
	order := info.ProcRPO(pr.ID)
	idx := make(map[ir.PointID]int, len(order))
	for i, id := range order {
		idx[id] = i
	}
	n := len(order)

	// Widening: without phis, intraprocedural dependency cycles run between
	// the defining points themselves, so every definition inside a CFG
	// cycle is a widening node.
	for _, id := range cfgCycleMembers(b.prog, order, idx) {
		b.g.Widen[id] = true
	}

	// Tracked locations and per-node def/kill.
	defsOf := make([][]ir.LocID, n)
	killsOf := make([]map[ir.LocID]bool, n)
	var locs []ir.LocID
	for i, id := range order {
		defsOf[i] = b.sets.defs(int(id))
		killsOf[i] = map[ir.LocID]bool(b.src.AlwaysKills(b.prog.Point(id)))
		locs = append(locs, b.sets.defs(int(id))...)
		locs = append(locs, b.sets.uses(int(id))...)
	}
	locs = ir.DedupLocs(locs)

	words := (n + 63) / 64
	for _, l := range locs {
		in := make([][]uint64, n)
		out := make([][]uint64, n)
		for i := 0; i < n; i++ {
			in[i] = make([]uint64, words)
			out[i] = make([]uint64, words)
		}
		gen := make([]int, n)
		kill := make([]bool, n)
		anyDef := false
		for i := range order {
			gen[i] = -1
			if ir.LocsContain(defsOf[i], l) {
				gen[i] = i
				anyDef = true
			}
			kill[i] = killsOf[i][l]
		}
		if !anyDef {
			continue
		}
		apply := func(i int) bool {
			changed := false
			for w := range out[i] {
				var v uint64
				if !kill[i] {
					v = in[i][w]
				}
				if gen[i] >= 0 && gen[i]/64 == w {
					v |= 1 << uint(gen[i]%64)
				}
				if v != out[i][w] {
					out[i][w] = v
					changed = true
				}
			}
			return changed
		}
		// Iterate to fixpoint in RPO (monotone bit growth).
		for changed := true; changed; {
			changed = false
			for i, id := range order {
				// IN = union of predecessor OUTs.
				for _, p := range b.prog.Point(id).Preds {
					pi, ok := idx[p]
					if !ok {
						continue
					}
					for w := range in[i] {
						in[i][w] |= out[pi][w]
					}
				}
				if apply(i) {
					changed = true
				}
			}
		}
		// Edges: every reaching definition flows to every use.
		for i, id := range order {
			if !ir.LocsContain(b.sets.uses(int(id)), l) {
				continue
			}
			for w := range in[i] {
				bitsW := in[i][w]
				for bitsW != 0 {
					bit := bitsW & (-bitsW)
					d := w*64 + bits.TrailingZeros64(bit)
					bitsW ^= bit
					add(NodeID(order[d]), l, NodeID(id))
				}
			}
		}
	}
}

// cfgCycleMembers returns the points of the procedure that lie on a CFG
// cycle (members of nontrivial SCCs or with self-loops).
func cfgCycleMembers(prog *ir.Program, order []ir.PointID, idx map[ir.PointID]int) []ir.PointID {
	n := len(order)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	var out []ir.PointID
	type frame struct {
		v  int
		ei int
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		dfs = append(dfs[:0], frame{v: root})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			succs := prog.Point(order[f.v]).Succs
			advanced := false
			for f.ei < len(succs) {
				w, ok := idx[succs[f.ei]]
				f.ei++
				if !ok {
					continue
				}
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				self := false
				for _, s := range prog.Point(order[v]).Succs {
					if si, ok := idx[s]; ok && si == v {
						self = true
					}
				}
				if len(comp) > 1 || self {
					for _, w := range comp {
						out = append(out, order[w])
					}
				}
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				u := dfs[len(dfs)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
		}
	}
	return out
}

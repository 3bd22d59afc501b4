// Restricted def-use graphs for per-checker (symbol-specific)
// sparsification: given the full graph and a closed location universe, the
// restriction keeps the same node universe but only the dependency
// structure on locations inside the universe.
package dug

import (
	"sparrow/internal/ir"
)

// BuildRestricted filters full down to the locations in keep (sorted,
// deduplicated — a prean.ClosureIndex.Closure result). The restricted graph shares
// the node universe, phi descriptors, widening marks, and priorities of the
// full graph; its D̂/Û sets are the full ones intersected with keep and its
// CSR carries exactly the full triples whose location is in keep. Because
// keep is closed under the builder's command-local dependencies, solving
// the restricted graph reproduces the full fixpoint on every kept location
// (nodes whose sets empty out simply stop relaying; phis on dropped
// locations become inert).
//
// The restriction reuses nothing of the staging pipeline: one pass over the
// finished tables counts what survives, so every table is allocated at its
// size, and a second fills them, so building one per checker costs far
// less than a rebuild.
func BuildRestricted(full *Graph, keep []ir.LocID) *Graph {
	nLocs := full.Prog.Locs.Len()
	inKeep := make([]bool, nLocs)
	for _, l := range keep {
		if l >= 0 && int(l) < nLocs {
			inKeep[l] = true
		}
	}
	kept := func(locs []ir.LocID) int {
		c := 0
		for _, l := range locs {
			if inKeep[l] {
				c++
			}
		}
		return c
	}
	// One counting pass sizes every table exactly.
	nRows, nSuccs := 0, 0
	for k, l := range full.edgeLocs {
		if inKeep[l] {
			nRows++
			nSuccs += int(full.succOff[k+1] - full.succOff[k])
		}
	}
	n := full.NumNodes()
	g := &Graph{
		Prog:           full.Prog,
		PointCount:     full.PointCount,
		Phis:           full.Phis,
		Widen:          full.Widen,
		Prio:           full.Prio,
		SplicedTriples: full.SplicedTriples,
		defOff:         make([]int32, n+1),
		useOff:         make([]int32, n+1),
		accOff:         make([]int32, n+1),
		edgeRow:        make([]int32, n+1),
		defLocs:        make([]ir.LocID, 0, kept(full.defLocs)),
		useLocs:        make([]ir.LocID, 0, kept(full.useLocs)),
		accLocs:        make([]ir.LocID, 0, kept(full.accLocs)),
		edgeLocs:       make([]ir.LocID, 0, nRows),
		succOff:        make([]int32, 0, nRows+1),
		succs:          make([]NodeID, 0, nSuccs),
		succSlot:       make([]int32, 0, nSuccs),
	}
	// The D̂/Û sets and the Acc slots are the full ones on kept locations,
	// in the same order.
	filter := func(off []int32, locs []ir.LocID, fullOff []int32, fullLocs []ir.LocID) []ir.LocID {
		for i := 0; i < n; i++ {
			for _, l := range fullLocs[fullOff[i]:fullOff[i+1]] {
				if inKeep[l] {
					locs = append(locs, l)
				}
			}
			off[i+1] = int32(len(locs))
		}
		return locs
	}
	g.defLocs = filter(g.defOff, g.defLocs, full.defOff, full.defLocs)
	g.useLocs = filter(g.useOff, g.useLocs, full.useOff, full.useLocs)
	g.accLocs = filter(g.accOff, g.accLocs, full.accOff, full.accLocs)
	// slot[k] renumbers the full Acc slot k (meaningful when it is kept).
	slot := make([]int32, len(full.accLocs))
	next := int32(0)
	for k, l := range full.accLocs {
		slot[k] = next
		if inKeep[l] {
			next++
		}
	}
	// Filter the CSR: keep a node's row key (and its successor run) only
	// when the key location survives. Key order and successor order are
	// inherited, so the restricted CSR satisfies the same invariants the
	// cursor and binary search rely on.
	for node := 0; node < n; node++ {
		g.edgeRow[node] = int32(len(g.edgeLocs))
		for k := full.edgeRow[node]; k < full.edgeRow[node+1]; k++ {
			l := full.edgeLocs[k]
			if !inKeep[l] {
				continue
			}
			g.edgeLocs = append(g.edgeLocs, l)
			g.succOff = append(g.succOff, int32(len(g.succs)))
			g.succs = append(g.succs, full.succs[full.succOff[k]:full.succOff[k+1]]...)
			for _, s := range full.succSlot[full.succOff[k]:full.succOff[k+1]] {
				g.succSlot = append(g.succSlot, slot[s])
			}
		}
	}
	g.edgeRow[n] = int32(len(g.edgeLocs))
	g.succOff = append(g.succOff, int32(len(g.succs)))
	g.EdgeCount = len(g.succs)
	return g
}

// ActiveStats reports the graph's effective size: nodes with a non-empty D̂
// or Û, (from, loc) successor rows, and ⟨from, loc, to⟩ dependency triples.
// On a restricted graph these are the per-checker size counters; on the
// full graph nodes ≈ NumNodes (linkage makes most sets non-empty).
func (g *Graph) ActiveStats() (nodes, rows, triples int) {
	for n := range g.NumNodes() {
		if g.defOff[n+1] > g.defOff[n] || g.useOff[n+1] > g.useOff[n] {
			nodes++
		}
	}
	return nodes, len(g.edgeLocs), g.EdgeCount
}

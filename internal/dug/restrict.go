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
// The restriction reuses nothing of the staging pipeline: it is a single
// pass over the finished CSR, so building one per checker costs far less
// than a rebuild.
func BuildRestricted(full *Graph, keep []ir.LocID) *Graph {
	nLocs := full.Prog.Locs.Len()
	inKeep := make([]bool, nLocs)
	for _, l := range keep {
		if l >= 0 && int(l) < nLocs {
			inKeep[l] = true
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
		Defs:           make([][]ir.LocID, n),
		Uses:           make([][]ir.LocID, n),
	}
	// Filter the per-node access sets into fresh shared backing arrays.
	var defsBuf, usesBuf []ir.LocID
	filter := func(buf []ir.LocID, s []ir.LocID) []ir.LocID {
		for _, l := range s {
			if inKeep[l] {
				buf = append(buf, l)
			}
		}
		return buf
	}
	for i := 0; i < n; i++ {
		d0 := len(defsBuf)
		defsBuf = filter(defsBuf, full.Defs[i])
		if len(defsBuf) > d0 {
			g.Defs[i] = defsBuf[d0:len(defsBuf):len(defsBuf)]
		}
		u0 := len(usesBuf)
		usesBuf = filter(usesBuf, full.Uses[i])
		if len(usesBuf) > u0 {
			g.Uses[i] = usesBuf[u0:len(usesBuf):len(usesBuf)]
		}
	}
	// The Acc slots are the full ones on kept locations, renumbered.
	slot := make([]int32, len(full.accLocs))
	g.accOff = make([]int32, n+1)
	for node := 0; node < n; node++ {
		g.accOff[node] = int32(len(g.accLocs))
		for k := full.accOff[node]; k < full.accOff[node+1]; k++ {
			if l := full.accLocs[k]; inKeep[l] {
				slot[k] = int32(len(g.accLocs))
				g.accLocs = append(g.accLocs, l)
			}
		}
	}
	g.accOff[n] = int32(len(g.accLocs))
	// Filter the CSR: keep a node's row key (and its successor run) only
	// when the key location survives. Key order and successor order are
	// inherited, so the restricted CSR satisfies the same invariants the
	// cursor and binary search rely on.
	g.edgeRow = make([]int32, n+1)
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
	for n := range g.Defs {
		if len(g.Defs[n]) > 0 || len(g.Uses[n]) > 0 {
			nodes++
		}
	}
	return nodes, len(g.edgeLocs), g.EdgeCount
}

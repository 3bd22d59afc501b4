// Partitioning of the def-use graph for the component sparse solvers.
//
// The dependency relation ↝ decomposes into strongly-connected components
// (the value cycles that need in-place iteration with widening) whose
// condensation is a DAG, and the DAG in turn splits into weakly-connected
// islands that share no dependency path at all. Both levels are exactly the
// independence the sparse framework exposes: values flow only along ↝, so a
// component's fixpoint depends on nothing but its condensation predecessors,
// and islands are mutually independent outright. The component solvers
// schedule components over this structure.
package dug

import (
	"fmt"
	"sort"
)

// Partition is the component decomposition of a def-use graph.
type Partition struct {
	// Comp[n] is the component of node n. Components are numbered in a
	// deterministic topological order of the SCC condensation: every
	// dependency edge u→v has Comp[u] <= Comp[v], with equality exactly
	// when u and v share a dependency cycle.
	Comp []int32
	// Nodes[c] lists the nodes of component c in ascending order. The
	// lists partition the node set: every node appears in exactly one
	// (verified at construction — the per-component solver memories are
	// disjoint by this construction).
	Nodes [][]NodeID
	// Succs[c]/Preds[c] are the condensation-DAG neighbors of c, sorted
	// and deduplicated, without self-edges.
	Succs [][]int32
	Preds [][]int32
	// Island[c] identifies the weakly-connected island of component c:
	// components in different islands are joined by no dependency edge in
	// either direction. Islands are numbered by first appearance in
	// component order.
	Island     []int32
	NumIslands int
	// LocalIdx[n] is n's index within Nodes[Comp[n]], a dense
	// per-component numbering for solver-local state.
	LocalIdx []int32
	// MaxComp is the size of the largest component.
	MaxComp int
}

// NumComps returns the number of components.
func (p *Partition) NumComps() int { return len(p.Nodes) }

// Partition returns the (cached) component decomposition of g.
func (g *Graph) Partition() *Partition {
	g.partOnce.Do(func() { g.part = g.computePartition() })
	return g.part
}

// nodeSuccs returns per-node dependency successors, deduplicated across
// locations and sorted (deterministic regardless of map iteration order).
func (g *Graph) nodeSuccs() [][]NodeID {
	n := g.NumNodes()
	out := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		var all []NodeID
		for k := g.edgeRow[i]; k < g.edgeRow[i+1]; k++ {
			all = append(all, g.succs[g.succOff[k]:g.succOff[k+1]]...)
		}
		if len(all) == 0 {
			continue
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		dedup := all[:1]
		for _, t := range all[1:] {
			if t != dedup[len(dedup)-1] {
				dedup = append(dedup, t)
			}
		}
		out[i] = dedup
	}
	return out
}

// computePartition runs an iterative Tarjan SCC pass over the dependency
// edges, renumbers the components topologically, and derives the
// condensation DAG and its weakly-connected islands.
func (g *Graph) computePartition() *Partition {
	n := g.NumNodes()
	succs := g.nodeSuccs()

	// Iterative Tarjan. Completion order assigns SCC ids in reverse
	// topological order; flipping them afterwards yields the topological
	// numbering. Iteration over nodes and successor lists is in fixed
	// ascending order, so the numbering is deterministic.
	const unvisited = -1
	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var (
		stack   []int32 // Tarjan node stack
		next    int32   // next DFS index
		numSCCs int32
	)
	type frame struct {
		v  int32
		si int // next successor position
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		dfs = append(dfs[:0], frame{v: int32(root)})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			if f.si < len(succs[f.v]) {
				w := int32(succs[f.v][f.si])
				f.si++
				switch {
				case index[w] == unvisited:
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, frame{v: w})
				case onStack[w]:
					if index[w] < lowlink[f.v] {
						lowlink[f.v] = index[w]
					}
				}
				continue
			}
			v := f.v
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := &dfs[len(dfs)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = numSCCs
					if w == v {
						break
					}
				}
				numSCCs++
			}
		}
	}

	k := int(numSCCs)
	p := &Partition{
		Comp:     comp,
		Nodes:    make([][]NodeID, k),
		Succs:    make([][]int32, k),
		Preds:    make([][]int32, k),
		Island:   make([]int32, k),
		LocalIdx: make([]int32, n),
	}
	// Flip to topological numbering: Tarjan completes callees-first, so a
	// cross-component edge u→v finished v's component first.
	for i := range comp {
		comp[i] = numSCCs - 1 - comp[i]
	}
	for i := 0; i < n; i++ {
		c := comp[i]
		p.LocalIdx[i] = int32(len(p.Nodes[c]))
		p.Nodes[c] = append(p.Nodes[c], NodeID(i))
	}
	// The components must partition the node set exactly — the parallel
	// solver relies on per-component memories being disjoint.
	total := 0
	for c := 0; c < k; c++ {
		if len(p.Nodes[c]) == 0 {
			panic(fmt.Sprintf("dug: empty component %d", c))
		}
		total += len(p.Nodes[c])
		if len(p.Nodes[c]) > p.MaxComp {
			p.MaxComp = len(p.Nodes[c])
		}
	}
	if total != n {
		panic(fmt.Sprintf("dug: components cover %d of %d nodes", total, n))
	}

	// Condensation edges (deduplicated, no self-edges) and the union-find
	// over them that yields the weakly-connected islands.
	uf := make([]int32, k)
	for i := range uf {
		uf[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	succSets := make([]map[int32]bool, k)
	for u := 0; u < n; u++ {
		cu := comp[u]
		for _, v := range succs[u] {
			cv := comp[v]
			if cu == cv {
				continue
			}
			if cu > cv {
				panic(fmt.Sprintf("dug: condensation edge %d→%d against topological order", cu, cv))
			}
			if succSets[cu] == nil {
				succSets[cu] = map[int32]bool{}
			}
			succSets[cu][cv] = true
			ru, rv := find(cu), find(cv)
			if ru != rv {
				uf[ru] = rv
			}
		}
	}
	for c := 0; c < k; c++ {
		if len(succSets[c]) == 0 {
			continue
		}
		out := make([]int32, 0, len(succSets[c]))
		for v := range succSets[c] {
			out = append(out, v)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		p.Succs[c] = out
		for _, v := range out {
			p.Preds[v] = append(p.Preds[v], int32(c))
		}
	}
	// Preds arrive in ascending source order already (c sweeps upward).

	island := make(map[int32]int32, k)
	for c := 0; c < k; c++ {
		r := find(int32(c))
		id, ok := island[r]
		if !ok {
			id = int32(len(island))
			island[r] = id
		}
		p.Island[c] = id
	}
	p.NumIslands = len(island)
	return p
}

// HasSucc reports whether dst is a direct condensation successor of src.
func (p *Partition) HasSucc(src, dst int32) bool {
	s := p.Succs[src]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= dst })
	return i < len(s) && s[i] == dst
}

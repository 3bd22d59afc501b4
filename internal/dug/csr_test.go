package dug

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

// buildSrc builds the graph for generated source (fuzz-corpus member).
func buildFuzz(t *testing.T, seed uint64, opt Options) (*ir.Program, *Graph) {
	t.Helper()
	src := cgen.Generate(cgen.Fuzz(seed, 60))
	f, err := parser.Parse(fmt.Sprintf("fuzz-%d.c", seed), src)
	if err != nil {
		t.Fatalf("seed %d: parse: %v", seed, err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("seed %d: lower: %v", seed, err)
	}
	return prog, Build(prog, prean.Run(prog), opt)
}

// TestCSRMatchesMapSets is the property test of the CSR flattening: over a
// fuzz corpus (both with and without chain bypass), the CSR-indexed access
// sets and successor rows must exactly equal an independently-collected
// map-based representation, and the three accessors (Range, Succs, Out
// cursor) must agree edge for edge.
func TestCSRMatchesMapSets(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		for _, byp := range []bool{false, true} {
			opt := Options{}
			if byp {
				opt.Bypass = true
			}
			_, g := buildFuzz(t, seed, opt)
			n := g.NumNodes()

			// Collect every triple through Range into map form.
			type edgeKey struct {
				from NodeID
				loc  ir.LocID
			}
			ranged := make(map[edgeKey][]NodeID)
			edges := 0
			g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
				ranged[edgeKey{from, l}] = append(ranged[edgeKey{from, l}], to)
				edges++
				return true
			})
			if edges != g.EdgeCount {
				t.Fatalf("seed %d bypass=%v: Range saw %d edges, EdgeCount=%d", seed, byp, edges, g.EdgeCount)
			}

			for i := 0; i < n; i++ {
				nd := NodeID(i)
				// Access sets must be strictly sorted (sorted + deduped).
				for _, s := range [][]ir.LocID{g.DefsOf(nd), g.UsesOf(nd)} {
					for j := 1; j < len(s); j++ {
						if s[j-1] >= s[j] {
							t.Fatalf("seed %d bypass=%v node %d: access set not strictly sorted: %v", seed, byp, i, s)
						}
					}
				}
				// Succs must agree with Range on every defined location, and
				// be empty on locations not defined here.
				cur := g.Out(nd)
				for _, l := range g.DefsOf(nd) {
					want := ranged[edgeKey{nd, l}]
					got := g.Succs(nd, l)
					if len(got) != len(want) {
						t.Fatalf("seed %d bypass=%v node %d loc %d: Succs=%v Range=%v", seed, byp, i, l, got, want)
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("seed %d bypass=%v node %d loc %d: Succs=%v Range=%v", seed, byp, i, l, got, want)
						}
					}
					// The cursor walks Defs in ascending order — it must see
					// exactly the same row.
					crow := cur.Seek(l)
					if len(crow) != len(got) {
						t.Fatalf("seed %d bypass=%v node %d loc %d: cursor row %v != Succs %v", seed, byp, i, l, crow, got)
					}
					for j := range crow {
						if crow[j] != got[j] {
							t.Fatalf("seed %d bypass=%v node %d loc %d: cursor row %v != Succs %v", seed, byp, i, l, crow, got)
						}
					}
					delete(ranged, edgeKey{nd, l})
				}
			}
			// Every ranged row must have been claimed by some (node, def-loc)
			// pair: an edge on a location its source does not define would be
			// unreachable through the Defs-driven solvers.
			for k, row := range ranged {
				t.Fatalf("seed %d bypass=%v: edge row %v on loc %d of node %d not covered by Defs", seed, byp, row, k.loc, k.from)
			}

			// Edge sources respect the access sets: l ∈ D̂(from). (Targets
			// need not use l — interprocedural linkage edges deliver values
			// to nodes that *redefine* the location, e.g. call→entry.)
			g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
				if !ir.LocsContain(g.DefsOf(from), l) {
					t.Fatalf("seed %d bypass=%v: edge (%d,%d,%d): loc not in DefsOf(from)", seed, byp, from, l, to)
				}
				return true
			})
		}
	}
}

// checkAccSlots verifies the Acc slots of g against its triples: InLocs(n)
// is exactly the sorted set of locations on n's in-edges, slots number those
// sets consecutively, and every edge's slot (SeekSlots) is its location's
// slot at its target.
func checkAccSlots(t *testing.T, label string, g *Graph) {
	t.Helper()
	n := g.NumNodes()
	in := make([]map[ir.LocID]bool, n)
	g.Range(func(_ NodeID, l ir.LocID, to NodeID) bool {
		if in[to] == nil {
			in[to] = map[ir.LocID]bool{}
		}
		in[to][l] = true
		return true
	})
	next := int32(0)
	for i := 0; i < n; i++ {
		nd := NodeID(i)
		locs := g.InLocs(nd)
		if g.AccBase(nd) != next || len(locs) != len(in[i]) {
			t.Fatalf("%s node %d: slots from %d (want %d), in-locations %v (want %d)", label, i, g.AccBase(nd), next, locs, len(in[i]))
		}
		for j, l := range locs {
			if !in[i][l] || j > 0 && locs[j-1] >= l || g.AccLoc(next+int32(j)) != l {
				t.Fatalf("%s node %d: in-locations %v not the sorted in-edge set", label, i, locs)
			}
		}
		next += int32(len(locs))
	}
	if int(next) != g.AccSlots() {
		t.Fatalf("%s: %d slots counted, AccSlots()=%d", label, next, g.AccSlots())
	}
	for i := 0; i < n; i++ {
		cur := g.Out(NodeID(i))
		for _, l := range g.DefsOf(NodeID(i)) {
			succs, slots := cur.SeekSlots(l)
			if len(slots) != len(succs) {
				t.Fatalf("%s node %d loc %d: %d successors, %d slots", label, i, l, len(succs), len(slots))
			}
			for k, to := range succs {
				s := slots[k]
				if s < g.AccBase(to) || int(s-g.AccBase(to)) >= len(g.InLocs(to)) || g.AccLoc(s) != l {
					t.Fatalf("%s edge (%d,%d,%d): slot %d is not the target's slot for the location", label, i, l, to, s)
				}
			}
		}
	}
}

// TestAccSlots checks the Acc slots of full graphs (with and without chain
// bypass) and of restricted graphs, which renumber the full graph's slots.
func TestAccSlots(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		for _, byp := range []bool{false, true} {
			prog, g := buildFuzz(t, seed, Options{Bypass: byp})
			label := fmt.Sprintf("seed %d bypass=%v", seed, byp)
			checkAccSlots(t, label, g)
			pre := prean.Run(prog)
			s := pre.Sem(prog)
			for name, keep := range keepSets(prog, pre, s) {
				checkAccSlots(t, label+" restricted to "+name, BuildRestricted(g, keep))
			}
		}
	}
}

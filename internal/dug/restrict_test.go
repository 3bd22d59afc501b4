package dug

import (
	"testing"

	"sparrow/internal/ir"
	"sparrow/internal/prean"
	"sparrow/internal/sem"
)

// keepSets builds a few representative restriction universes for a program:
// the closed control-seed universe (what every per-checker closure
// contains), a deterministic thin slice of the location table, everything,
// and nothing.
func keepSets(prog *ir.Program, pre *prean.Result, s *sem.Sem) map[string][]ir.LocID {
	var all, thin []ir.LocID
	for l := 0; l < prog.Locs.Len(); l++ {
		all = append(all, ir.LocID(l))
		if l%3 == 0 {
			thin = append(thin, ir.LocID(l))
		}
	}
	return map[string][]ir.LocID{
		"closure": pre.ClosureIndex(prog, s).Closure(pre.ControlSeeds(prog, s)),
		"thin":    thin,
		"all":     all,
		"none":    nil,
	}
}

// TestBuildRestrictedSubset is the property test of the graph restriction:
// over a fuzz corpus and several keep universes, the restricted D̂/Û sets
// must be exactly the full sets intersected with the universe, and the
// restricted CSR must carry exactly the full dependency triples whose
// location is kept — order included, so the cursor/binary-search invariants
// carry over.
func TestBuildRestrictedSubset(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		prog, g := buildFuzz(t, seed, Options{Bypass: true})
		pre := prean.Run(prog)
		s := pre.Sem(prog)
		for name, keep := range keepSets(prog, pre, s) {
			inKeep := make(map[ir.LocID]bool, len(keep))
			for _, l := range keep {
				inKeep[l] = true
			}
			rg := BuildRestricted(g, keep)
			if rg.NumNodes() != g.NumNodes() || rg.PointCount != g.PointCount {
				t.Fatalf("seed %d %s: node universe changed", seed, name)
			}
			for n := 0; n < g.NumNodes(); n++ {
				nd := NodeID(n)
				checkFiltered := func(what string, full, restr []ir.LocID) {
					want := full[:0:0]
					for _, l := range full {
						if inKeep[l] {
							want = append(want, l)
						}
					}
					if len(want) != len(restr) {
						t.Fatalf("seed %d %s node %d: %s = %v, want %v", seed, name, n, what, restr, want)
					}
					for i := range want {
						if want[i] != restr[i] {
							t.Fatalf("seed %d %s node %d: %s = %v, want %v", seed, name, n, what, restr, want)
						}
					}
				}
				checkFiltered("Defs", g.DefsOf(nd), rg.DefsOf(nd))
				checkFiltered("Uses", g.UsesOf(nd), rg.UsesOf(nd))
			}
			// Triples: restricted == { (from, loc, to) ∈ full : loc kept },
			// checked both ways through Range plus the Succs accessor.
			type triple struct {
				from NodeID
				loc  ir.LocID
				to   NodeID
			}
			fullSet := map[triple]bool{}
			wantCount := 0
			g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
				fullSet[triple{from, l, to}] = true
				if inKeep[l] {
					wantCount++
				}
				return true
			})
			got := 0
			rg.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
				got++
				if !inKeep[l] {
					t.Fatalf("seed %d %s: restricted triple (%d,%d,%d) outside universe", seed, name, from, l, to)
				}
				if !fullSet[triple{from, l, to}] {
					t.Fatalf("seed %d %s: restricted triple (%d,%d,%d) not in full graph", seed, name, from, l, to)
				}
				for _, s := range rg.Succs(from, l) {
					if !fullSet[triple{from, l, s}] {
						t.Fatalf("seed %d %s: Succs(%d,%d) row member %d not in full graph", seed, name, from, l, s)
					}
				}
				return true
			})
			if got != wantCount || rg.EdgeCount != wantCount {
				t.Fatalf("seed %d %s: restricted triples %d (EdgeCount %d), want %d",
					seed, name, got, rg.EdgeCount, wantCount)
			}
			if rg.EdgeCount > g.EdgeCount {
				t.Fatalf("seed %d %s: restriction grew the graph", seed, name)
			}
		}
	}
}

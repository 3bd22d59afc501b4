package prean

import (
	"fmt"
	"slices"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/sem"
)

// TestObservedClosureProperties is the property test of the per-checker
// location closure: over a fuzz corpus it checks, against the map-based
// DefsUses reference rather than the staged CSR index the implementation
// uses, that the closure is sorted, contains its seeds, and is genuinely
// closed — any command defining a member has all its uses as members, so a
// restricted solve never reads a location the restriction dropped.
func TestObservedClosureProperties(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		src := cgen.Generate(cgen.Fuzz(seed, 60))
		f, err := parser.Parse(fmt.Sprintf("fuzz-%d.c", seed), src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		prog, err := lower.File(f)
		if err != nil {
			t.Fatalf("seed %d: lower: %v", seed, err)
		}
		pre := Run(prog)
		s := sem.New(prog)
		s.Callees = pre.CalleesOf
		s.InCycle = pre.CG.InCycle

		seeds := pre.ControlSeeds(prog, s)
		ix := pre.ClosureIndex(prog, s)
		closure := ix.Closure(seeds)

		inL := map[ir.LocID]bool{}
		for i, l := range closure {
			if i > 0 && closure[i-1] >= l {
				t.Fatalf("seed %d: closure not strictly sorted at %d", seed, i)
			}
			inL[l] = true
		}
		for _, l := range seeds {
			if !inL[l] {
				t.Errorf("seed %d: seed %s missing from closure", seed, prog.Locs.String(l))
			}
		}

		// Closedness, per command: some def in L ⇒ every use in L.
		for pi := range prog.Procs {
			for _, id := range prog.Procs[pi].Points {
				pt := prog.Point(id)
				d, u := s.DefsUses(pt, pre.Mem)
				hit := false
				for l := range d {
					if inL[l] {
						hit = true
						break
					}
				}
				if !hit {
					continue
				}
				for l := range u {
					if !inL[l] {
						t.Errorf("seed %d point %d: defines a kept location but use %s dropped",
							seed, id, prog.Locs.String(l))
					}
				}
			}
		}

		// Monotonicity: enlarging the seed set never shrinks the closure.
		var allSeeds []ir.LocID
		for l := 0; l < prog.Locs.Len(); l += 2 {
			allSeeds = append(allSeeds, ir.LocID(l))
		}
		bigger := ix.Closure(ir.MergeLocs(nil, seeds, allSeeds))
		// The index is read-only: walking it again repeats the first walk.
		if again := ix.Closure(seeds); !slices.Equal(again, closure) {
			t.Errorf("seed %d: second walk over one index gave %d locations, first %d", seed, len(again), len(closure))
		}
		inBig := map[ir.LocID]bool{}
		for _, l := range bigger {
			inBig[l] = true
		}
		for _, l := range closure {
			if !inBig[l] {
				t.Errorf("seed %d: closure member %s lost under a larger seed set",
					seed, prog.Locs.String(l))
			}
		}
	}
}

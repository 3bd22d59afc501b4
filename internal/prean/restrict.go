// Symbol-specific sparsification support: the pre-analysis side of
// restricting an analysis to the locations one checker can observe.
//
// A checker's report depends only on the abstract values of the locations
// its guard expressions read. Those values in turn depend on the locations
// the defining commands read, transitively — and on the branch-condition
// locations that steer reachability and assume refinement. Closing the
// observed set backward over the command-local D̂/Û pairs therefore yields a
// location universe L on which the restricted sparse fixpoint agrees
// exactly with the full one (the per-checker analogue of the paper's
// spatial sparsification: everything outside L is provably irrelevant to
// the checker).
package prean

import (
	"sparrow/internal/ir"
	"sparrow/internal/sem"
)

// ControlSeeds returns the union of the branch-condition uses of every
// Assume point, judged against the flow-insensitive invariant.
// Reachability — which points get checked at all — and assume refinement
// are steered by these locations, so every checker's restricted universe
// must include them; they are the seeds shared by all closures.
func (r *Result) ControlSeeds(prog *ir.Program, s *sem.Sem) []ir.LocID {
	var locs []ir.LocID
	add := func(l ir.LocID) { locs = append(locs, l) }
	for _, pt := range prog.Points {
		if a, ok := pt.Cmd.(ir.Assume); ok {
			s.UseOf(a.E, r.Mem, add)
		}
	}
	return ir.DedupLocs(locs)
}

// ClosureIndex is the seed-independent part of a checker's restricted
// location universe: every command's local D̂/Û judged against the
// invariant, staged flat with offsets, and a CSR index from each defined
// location to the commands defining it. It depends on the program and the
// pre-analysis only, and is read-only once built, so one index serves the
// Closure walks of every checker kind.
type ClosureIndex struct {
	nLocs  int
	uses   []ir.LocID
	useOff []int32 // uses of command i: uses[useOff[i]:useOff[i+1]]
	start  []int32 // commands defining l: byDef[start[l]:start[l+1]]
	byDef  []int32
}

// ClosureIndex stages the D̂/Û pairs of prog's commands against the
// invariant and indexes them by defined location.
func (r *Result) ClosureIndex(prog *ir.Program, s *sem.Sem) *ClosureIndex {
	nLocs := prog.Locs.Len()
	nPts := len(prog.Points)
	var defs, uses []ir.LocID
	defOff := make([]int32, nPts+1)
	useOff := make([]int32, nPts+1)
	for i, pt := range prog.Points {
		defs, uses = s.DefsUsesAppend(pt, r.Mem, defs, uses)
		defOff[i+1] = int32(len(defs))
		useOff[i+1] = int32(len(uses))
	}
	start := make([]int32, nLocs+1)
	for _, l := range defs {
		start[l+1]++
	}
	for i := 1; i <= nLocs; i++ {
		start[i] += start[i-1]
	}
	byDef := make([]int32, len(defs))
	fill := append([]int32(nil), start[:nLocs]...)
	for i := 0; i < nPts; i++ {
		for _, l := range defs[defOff[i]:defOff[i+1]] {
			byDef[fill[l]] = int32(i)
			fill[l]++
		}
	}
	return &ClosureIndex{nLocs: nLocs, uses: uses, useOff: useOff, start: start, byDef: byDef}
}

// Closure computes the restricted location universe of a checker: the
// transitive backward data-dependency closure of seeds (the checker's
// observed locations unioned with the control seeds) over the indexed
// command-local D̂/Û pairs. The closure rule is per command: if any
// location a command defines is in the universe, every location it uses
// joins the universe — exactly the dependencies the restricted def-use
// graph must carry for the values of the universe to come out identical to
// the full solve. Interprocedural linkage relays (call/entry/exit/return-site
// summary carriers) are per-location identities and need no extra rule.
// The result is sorted.
func (ix *ClosureIndex) Closure(seeds []ir.LocID) []ir.LocID {
	// Worklist closure. A command's uses are pulled at most once (pulled is
	// monotone), so the sweep is linear in the staged pair sizes.
	inL := make([]bool, ix.nLocs)
	pulled := make([]bool, len(ix.useOff)-1)
	queue := make([]ir.LocID, 0, len(seeds))
	push := func(l ir.LocID) {
		if l >= 0 && int(l) < ix.nLocs && !inL[l] {
			inL[l] = true
			queue = append(queue, l)
		}
	}
	for _, l := range seeds {
		push(l)
	}
	for len(queue) > 0 {
		l := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, pi := range ix.byDef[ix.start[l]:ix.start[l+1]] {
			if pulled[pi] {
				continue
			}
			pulled[pi] = true
			for _, u := range ix.uses[ix.useOff[pi]:ix.useOff[pi+1]] {
				push(u)
			}
		}
	}
	var out []ir.LocID
	for l := 0; l < ix.nLocs; l++ {
		if inL[l] {
			out = append(out, ir.LocID(l))
		}
	}
	return out
}

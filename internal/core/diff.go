package core

import (
	"fmt"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
)

// This file hosts the differential-comparison primitives the fuzzing
// subsystem (internal/fuzz) builds its oracles on. They live here because
// they need the solver-internal fields of Result (the raw fixpoints, the
// def-use graph, the semantics) that the public API deliberately hides.

// Widened reports whether the run applied at least one effective widening
// (a widening that changed the joined value). A run that never widened
// computed the least fixpoint, which is schedule-independent — the surface
// on which exact sparse/base equality (Lemma 2) is checkable on arbitrary
// programs. Octagon runs do not track widenings; they report true
// (conservatively: equality is not claimed for them).
func (r *Result) Widened() bool {
	switch {
	case r.sres != nil:
		return r.sres.Widenings > 0
	case r.dres != nil:
		return r.dres.Widenings > 0
	}
	return true
}

// liveProcs is the set of procedures reachable from main through the
// pre-analysis's resolved call graph. The dense engines deliver a callee's
// exit memory to every return site of that callee — including call sites
// in procedures no call chain from main reaches — so they flood dead
// procedures with plausible-looking values the sparse engine (correctly)
// leaves bottom. Cross-engine comparisons are only meaningful outside that
// dead region.
func (r *Result) liveProcs() map[ir.ProcID]bool {
	byProc := map[ir.ProcID][]ir.PointID{}
	for _, pt := range r.Prog.Points {
		if _, isCall := pt.Cmd.(ir.Call); isCall {
			byProc[pt.Proc] = append(byProc[pt.Proc], pt.ID)
		}
	}
	live := map[ir.ProcID]bool{r.Prog.Main: true}
	work := []ir.ProcID{r.Prog.Main}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for _, call := range byProc[p] {
			for _, callee := range r.pre.CalleesOf(call) {
				if !live[callee] {
					live[callee] = true
					work = append(work, callee)
				}
			}
		}
	}
	return live
}

// DiffSparseVsBase compares a sparse interval result against a Base (dense
// + access-localized) interval result of the same program on every D̂ entry
// of every commonly-reached point in every procedure reachable from main —
// the paper's Lemma 2 surface.
//
// With strict set, reachability and entries must be equal — the check for
// curated programs where the two engines provably coincide. Without it, the
// check is the containment that holds on arbitrary widening-free programs
// (see Widened): base ⊑ sparse on every commonly-reached D̂ entry. The
// sparse equation system over-approximates the dense one — an assume node
// can fire when control-reached before all of its used values have arrived
// (absent entries read as unknown), so sparse may fail to refute a branch
// the dense analysis kills — hence sparse may be strictly looser, but it
// must never be strictly tighter than base absent widening (that would be
// phantom precision: a value below the dense least fixpoint). Under
// widening neither direction is a theorem: the fixpoints are
// schedule-dependent and genuinely incomparable.
//
// Reachability mismatches are skipped in non-strict mode: each engine
// over-reaches where the other does not. Sparse reachability marks are
// sticky (the assume artifact above), while Base's access localization
// bypasses the caller's untouched memory around a call directly to the
// return site — so when a callee provably never returns (e.g. unconditional
// self-recursion), Base still marks the concretely-dead return site and its
// continuation reachable while sparse correctly leaves them bottom. The
// sound direction — no engine may claim unreachable a point execution
// visits — is enforced concretely by the fuzzing soundness oracle.
//
// The two results may come from separate parses of the same source:
// lowering is deterministic, so point and location IDs coincide.
//
// At most limit mismatches are reported (0 = no limit).
func DiffSparseVsBase(sp, base *Result, strict bool, limit int) ([]string, error) {
	if sp.sres == nil {
		return nil, fmt.Errorf("core: DiffSparseVsBase: first result is not sparse interval")
	}
	if base.dres == nil {
		return nil, fmt.Errorf("core: DiffSparseVsBase: second result is not dense interval")
	}
	var out []string
	report := func(format string, args ...any) bool {
		out = append(out, fmt.Sprintf(format, args...))
		return limit > 0 && len(out) >= limit
	}
	prog, g := sp.Prog, sp.graph
	live := sp.liveProcs()
	for _, pt := range prog.Points {
		if !live[pt.Proc] {
			continue
		}
		sr, dr := sp.sres.Reached[pt.ID], base.dres.Reached[pt.ID]
		if sr != dr {
			if strict {
				if report("point %d (%s): reachability sparse=%v base=%v",
					pt.ID, prog.CmdString(pt.Cmd), sr, dr) {
					return out, nil
				}
			}
			continue
		}
		if !sr {
			continue
		}
		switch pt.Cmd.(type) {
		case ir.Call:
			continue // formal bindings live at entries in the dense world
		case ir.Exit:
			// Exit nodes carry the callee's locals as linkage defs in the
			// def-use graph; the dense exit transfer drops local bindings
			// (scope exit), so the two sides are incomparable here by
			// representation, not by precision. Globals are still checked
			// at every preceding point.
			continue
		}
		dOut := base.dres.Out(base.isem, pt)
		for _, l := range g.Defs[dug.NodeID(pt.ID)] {
			sv := sp.sres.Out[pt.ID].Get(l)
			dv := dOut.Get(l)
			bad := false
			if strict {
				bad = !sv.Eq(dv)
			} else {
				bad = !dv.LessEq(sv)
			}
			if bad {
				rel := "not ⊒"
				if strict {
					rel = "!="
				}
				if report("point %d (%s) loc %s: sparse %s %s base %s",
					pt.ID, prog.CmdString(pt.Cmd), prog.Locs.String(l),
					sv.String(), rel, dv.String()) {
					return out, nil
				}
			}
		}
	}
	return out, nil
}

// DiffSparseRuns compares two sparse interval results of the same program
// bit-exactly: reachability, the Acc/Out partial memories at every def-use
// node, and the deterministic step counter. It is the oracle wherever two
// runs must agree exactly: repeated runs of one configuration (fuzz
// determinism oracle) and budgeted versus plain runs.
//
// At most limit mismatches are reported (0 = no limit).
func DiffSparseRuns(a, b *Result, limit int) ([]string, error) {
	if a.sres == nil || b.sres == nil {
		return nil, fmt.Errorf("core: DiffSparseRuns: both results must be sparse interval")
	}
	var out []string
	report := func(format string, args ...any) bool {
		out = append(out, fmt.Sprintf(format, args...))
		return limit > 0 && len(out) >= limit
	}
	if a.sres.Steps != b.sres.Steps {
		if report("steps %d vs %d", a.sres.Steps, b.sres.Steps) {
			return out, nil
		}
	}
	for pt := range a.sres.Reached {
		if a.sres.Reached[pt] != b.sres.Reached[pt] {
			if report("point %d: reachability %v vs %v", pt, a.sres.Reached[pt], b.sres.Reached[pt]) {
				return out, nil
			}
		}
	}
	g := a.graph
	for n := 0; n < g.NumNodes(); n++ {
		if !a.sres.Acc[n].Eq(b.sres.Acc[n]) {
			if report("node %d: Acc differs:\n  a %s\n  b %s", n, a.sres.Acc[n], b.sres.Acc[n]) {
				return out, nil
			}
		}
		if !a.sres.Out[n].Eq(b.sres.Out[n]) {
			if report("node %d: Out differs:\n  a %s\n  b %s", n, a.sres.Out[n], b.sres.Out[n]) {
				return out, nil
			}
		}
	}
	return out, nil
}

package core

import (
	"fmt"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/octsem"
	"sparrow/internal/solver/sparse"
)

// This file hosts the differential-comparison primitives the fuzzing
// subsystem (internal/fuzz) builds its oracles on. They live here because
// they need the solver-internal fields of Result (the raw fixpoints, the
// def-use graph, the semantics) that the public API deliberately hides.

// Widened reports whether the run applied at least one effective widening
// (a widening that changed the joined value). A run that never widened
// computed the least fixpoint, which is schedule-independent — the surface
// on which exact sparse/base equality (Lemma 2) is checkable on arbitrary
// programs.
func (r *Result) Widened() bool { return r.out.widenings > 0 }

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
		for _, l := range g.DefsOf(dug.NodeID(pt.ID)) {
			sv, _ := sp.sres.Value(pt.ID, l)
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

// DiffSparseRuns compares two sparse results of the same program and domain
// bit-exactly: reachability, the Acc/Out partial memories at every def-use
// node, and the deterministic step counter. It is the oracle wherever two
// runs must agree exactly: repeated runs of one configuration (fuzz
// determinism oracle) and budgeted versus plain runs.
//
// At most limit mismatches are reported (0 = no limit).
func DiffSparseRuns(a, b *Result, limit int) ([]string, error) {
	switch {
	case a.sres != nil && b.sres != nil:
		return diffSparse(a, b, a.sres, b.sres, mem.FromSorted, limit), nil
	case a.osres != nil && b.osres != nil:
		return diffSparse(a, b, a.osres, b.osres, octsem.FromSorted, limit), nil
	}
	return nil, fmt.Errorf("core: DiffSparseRuns: both results must be sparse runs of one domain")
}

// diffSparse is DiffSparseRuns over one domain's solver results; memOf
// builds that domain's memory from a node's entries.
func diffSparse[V any, M interface{ Eq(M) bool }](a, b *Result, sa, sb *sparse.Result[V], memOf func([]ir.LocID, []V) M, limit int) []string {
	var out []string
	report := func(format string, args ...any) bool {
		out = append(out, fmt.Sprintf(format, args...))
		return limit > 0 && len(out) >= limit
	}
	if a.out.steps != b.out.steps {
		if report("steps %d vs %d", a.out.steps, b.out.steps) {
			return out
		}
	}
	for pt, ra := range a.out.reached {
		if rb := b.out.reached[pt]; ra != rb {
			if report("point %d: reachability %v vs %v", pt, ra, rb) {
				return out
			}
		}
	}
	for n := range a.graph.NumNodes() {
		id := dug.NodeID(n)
		if am, bm := memOf(sa.Acc(id)), memOf(sb.Acc(id)); !am.Eq(bm) {
			if report("node %d: Acc differs:\n  a %v\n  b %v", n, am, bm) {
				return out
			}
		}
		if am, bm := memOf(sa.Out(id)), memOf(sb.Out(id)); !am.Eq(bm) {
			if report("node %d: Out differs:\n  a %v\n  b %v", n, am, bm) {
				return out
			}
		}
	}
	return out
}

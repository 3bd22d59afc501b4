// Per-checker sparsification: solve the fixpoint only on the location
// universe one checker can observe (symbol-specific sparse analysis). The
// pipeline per checker kind is
//
//	observed locations  (check.CheckerFor(kind).Observed)
//	∪ control seeds     (branch-condition uses, shared across kinds)
//	→ backward closure  (a walk over prean.ClosureIndex, built once per run)
//	→ restricted DUG    (dug.BuildRestricted — filter, not rebuild)
//	→ sequential sparse fixpoint on the restricted graph
//	→ that kind's alarms (check.RunKinds)
//
// The contract, gated by the fuzz restriction oracle and the corpus parity
// tests: the restricted run's alarms of the kind are bit-identical to the
// full sequential sparse solve's alarms of that kind.
//
// Kinds often close to the same universe (buffer overrun, null dereference
// and division by zero usually do), and the last two steps depend on the
// universe only: an equal keep set filters the same graph, and the
// sequential solver is deterministic on it. So a kind whose keep set equals
// that of the previous restricted solve reuses that solve and only runs its
// own checker (CheckerRun.SharedWith).
package core

import (
	"fmt"
	"slices"
	"time"

	"sparrow/internal/check"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/prean"
	"sparrow/internal/solver/sparse"
)

// CheckerRun is the outcome of one per-checker restricted solve.
type CheckerRun struct {
	Kind check.Kind
	// Alarms is the kind's report from the restricted fixpoint, in the
	// same order RunKinds yields on the full result.
	Alarms []check.Alarm
	// Keep is |L|: the size of the restricted location universe (observed
	// set closed backward over data dependencies, plus control seeds).
	Keep int
	// Nodes, Rows and Triples are the restricted graph's active sizes
	// (nodes with a surviving D̂/Û member, (from, loc) successor rows,
	// dependency triples); FullTriples is the full graph's triple count
	// for the headline ratio.
	Nodes, Rows, Triples int
	FullTriples          int
	// SharedWith names the kind whose restricted solve this run reused
	// (its keep set was equal); nil when this call solved its own graph.
	SharedWith *check.Kind
	// SolveTime is the restricted fixpoint time this call spent (closure
	// and graph filtering excluded; zero when the solve was shared);
	// TotalTime covers the whole per-checker pipeline.
	SolveTime time.Duration
	TotalTime time.Duration
	// Steps mirrors the result of the solve that produced Alarms,
	// whichever call ran it.
	Steps int
}

// restrictedSolve is one solved restricted graph, kept on the Result so the
// next kind with the same universe can reuse it.
type restrictedSolve struct {
	keep                 []ir.LocID
	kind                 check.Kind // the kind whose call solved it
	nodes, rows, triples int
	sres                 *sparse.Result[val.Val]
}

// reuseSolve returns the kept solve if it was filtered with exactly keep.
// Otherwise it drops the kept solve, so that at most one solved result is
// alive beside the one the caller builds next.
func (r *Result) reuseSolve(keep []ir.LocID) *restrictedSolve {
	if s := r.lastSolve; s != nil && slices.Equal(s.keep, keep) {
		return s
	}
	r.lastSolve = nil
	return nil
}

// controlSeedsMemo returns (and caches) the branch-condition seed set.
func (r *Result) controlSeedsMemo() []ir.LocID {
	if r.ctrlSeeds == nil {
		r.ctrlSeeds = r.pre.ControlSeeds(r.Prog, r.isem)
		if r.ctrlSeeds == nil {
			r.ctrlSeeds = []ir.LocID{}
		}
	}
	return r.ctrlSeeds
}

// closureMemo returns (and caches) the D̂/Û closure index; it depends on
// the program and the pre-analysis only, never on the checker kind.
func (r *Result) closureMemo() *prean.ClosureIndex {
	if r.closure == nil {
		r.closure = r.pre.ClosureIndex(r.Prog, r.isem)
	}
	return r.closure
}

// restrCounters maps a checker kind to its (nodes, rows, triples) counters.
func restrCounters(k check.Kind) (nodes, rows, triples metrics.Counter, ok bool) {
	switch k {
	case check.BufferOverrun:
		return metrics.CtrRestrBufNodes, metrics.CtrRestrBufEdges, metrics.CtrRestrBufTriples, true
	case check.NullDeref:
		return metrics.CtrRestrNullNodes, metrics.CtrRestrNullEdges, metrics.CtrRestrNullTriples, true
	case check.DivByZero:
		return metrics.CtrRestrDivNodes, metrics.CtrRestrDivEdges, metrics.CtrRestrDivTriples, true
	case check.UninitRead:
		return metrics.CtrRestrUninitNodes, metrics.CtrRestrUninitEdges, metrics.CtrRestrUninitTriples, true
	}
	return 0, 0, 0, false
}

// keepSet is the restricted location universe of kind: its observed
// locations and the control seeds, closed backward over the D̂/Û index.
func (r *Result) keepSet(kind check.Kind) []ir.LocID {
	observed := check.CheckerFor(kind).Observed(r.Prog, r.isem, r.pre.Mem)
	seeds := ir.MergeLocs(nil, observed, r.controlSeedsMemo())
	return r.closureMemo().Closure(seeds)
}

// AnalyzeChecker reruns the sparse fixpoint restricted to what kind can
// observe and returns that kind's alarms plus the restriction statistics.
// It requires a completed sparse interval run (the full graph is filtered,
// never rebuilt) and uses the run's own semantics — in particular the same
// entry-mark configuration — so the restricted alarms are bit-identical to
// the full run's alarms of the kind. The restricted graph is rarely small:
// on generated programs it keeps 99.1–99.8% of the full triples, which is
// why solves are shared. If kind's keep set equals that of the previous
// restricted solve, this call reuses its graph statistics and fixpoint and
// runs only kind's checker; SharedWith names the kind that paid for the
// solve. The solve feeds its work counters nowhere: the run collector keeps
// the full solve's numbers, and only the restr_* size counters and the
// restricted phase time are recorded.
func (r *Result) AnalyzeChecker(kind check.Kind) (*CheckerRun, error) {
	if r.sres == nil {
		return nil, fmt.Errorf("core: AnalyzeChecker requires a completed sparse interval run")
	}
	if r.Opts.DefUseChains {
		return nil, fmt.Errorf("core: AnalyzeChecker needs the data-dependency graph (def-use-chain mode unsupported)")
	}
	stop := r.col.Phase(metrics.PhaseRestrict)
	defer stop()
	t0 := time.Now()

	keep := r.keepSet(kind)
	s := r.reuseSolve(keep)
	shared := s != nil
	var solve time.Duration
	if !shared {
		rg := dug.BuildRestricted(r.graph, keep)
		s = &restrictedSolve{keep: keep, kind: kind}
		s.nodes, s.rows, s.triples = rg.ActiveStats()
		ts := time.Now()
		s.sres = sparse.Analyze(r.Prog, r.pre, sparse.Intervals(r.isem), rg, sparse.Options{
			Narrow: r.Opts.Narrow,
		})
		solve = time.Since(ts)
		r.lastSolve = s
	}
	if cn, cr, ct, ok := restrCounters(kind); ok {
		r.col.Set(cn, int64(s.nodes))
		r.col.Set(cr, int64(s.rows))
		r.col.Set(ct, int64(s.triples))
	}

	sres := s.sres
	alarms := check.RunKinds(r.Prog, r.isem, sres.Reached,
		func(pt ir.PointID) mem.Mem { return mem.FromSorted(sres.Acc(dug.NodeID(pt))) }, []check.Kind{kind})
	run := &CheckerRun{
		Kind:        kind,
		Alarms:      alarms,
		Keep:        len(keep),
		Nodes:       s.nodes,
		Rows:        s.rows,
		Triples:     s.triples,
		FullTriples: r.graph.EdgeCount,
		SolveTime:   solve,
		Steps:       sres.Steps,
	}
	if shared {
		by := s.kind
		run.SharedWith = &by
	}
	run.TotalTime = time.Since(t0)
	return run, nil
}

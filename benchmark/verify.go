package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"sparrow/internal/core"
	"sparrow/internal/dug"
	"sparrow/internal/interp"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
)

// verdict is a corpus file's expected alarm counts under the CLI defaults.
type verdict struct{ buf, null int64 }

// corpusVerdicts is the alarm table of TestCorpusGoldenAlarms, with its
// reasons. It is the only hand-written verdict the benchmark has.
var corpusVerdicts = map[string]verdict{
	// The three planted bugs of overruns.c are found; matrix and
	// statemachine are proved safe.
	"matrix.c":       {0, 0},
	"statemachine.c": {0, 0},
	"overruns.c":     {2, 1},
	"tokenizer.c":    {0, 0},
	"bitops.c":       {0, 0},
	"workqueue.c":    {0, 0},
	// The classic interval-domain false alarms: widening loses the upper
	// bound that a global "sp <= 32"-style invariant would need.
	"stack.c":     {1, 0}, // pop's stack[sp] upper bound lost to widening
	"ringbuf.c":   {2, 0}, // head/tail widened at the shared entries
	"sortcheck.c": {4, 0}, // shifted-write bounds lost to widening
	// The null checker fires only on pointers with no valid target, so the
	// guarded traversal through may-null pointers is silent.
	"linkedlist.c": {0, 0},
	// fpdispatch clamps its store index, switchcase's class is a join of
	// constants under a guard, gotoloop's write is guarded after the loop.
	"fpdispatch.c": {0, 0},
	"switchcase.c": {0, 0},
	"gotoloop.c":   {0, 0},
	// uninit.c's bugs are uninitialized reads, which the default checkers
	// do not report.
	"uninit.c": {0, 0},
}

func checkVerdict(table map[string]verdict, name string, rep *metrics.Report) error {
	want, ok := table[name]
	if !ok {
		return fmt.Errorf("%s: no verdict", name)
	}
	got := verdict{rep.Counters["alarms_buf"], rep.Counters["alarms_null"]}
	if got != want {
		return fmt.Errorf("%s: buf/null alarms %d/%d, verdict %d/%d", name, got.buf, got.null, want.buf, want.null)
	}
	return nil
}

// identityCounters must read the same from the CLI and the traced pass:
// both run the same configuration and the counters are deterministic.
var identityCounters = []string{"worklist_pops", "dug_edges", "reached_points", "alarms"}

func checkIdentity(cli, traced *metrics.Report) error {
	for _, c := range identityCounters {
		if a, b := cli.Counters[c], traced.Counters[c]; a != b {
			return fmt.Errorf("%s: CLI %d, traced pass %d", c, a, b)
		}
	}
	return nil
}

// soundnessSteps bounds each concrete execution of the soundness check.
const soundnessSteps = 1_000_000

// checkSoundness runs prog concretely on seeded inputs and checks that the
// analysis covers the execution: every visited point is reached and, when
// values is set (the sparse interval analyzer), every observed integer of a
// location the point uses but does not define lies in its interval. The
// point's own definitions are skipped because the interpreter observes
// before the point runs and the sparse result holds their values after it.
func checkSoundness(res *core.Result, seed uint64, values bool) error {
	prog := res.Prog
	rng := rand.New(rand.NewSource(int64(seed)))
	inputs := make([]int64, 64)
	for i := range inputs {
		inputs[i] = int64(rng.Intn(2001) - 1000)
	}
	var g *dug.Graph
	if values {
		g = res.Graph()
	}
	seen := make([]bool, len(prog.Points))
	var bad error
	_, err := interp.Run(prog, interp.Options{
		MaxSteps:       soundnessSteps,
		Inputs:         inputs,
		TrapOverflow:   true,
		TrapMissingRet: true,
		Observe: func(pt ir.PointID, get func(ir.LocID) (interp.Value, bool)) {
			if bad != nil {
				return
			}
			if !seen[pt] {
				seen[pt] = true
				if !res.Reached(pt) {
					bad = fmt.Errorf("point %d executed but not reached", pt)
					return
				}
			}
			if g == nil {
				return
			}
			n := dug.NodeID(pt)
			for _, l := range g.Uses[n] {
				if ir.LocsContain(g.Defs[n], l) {
					continue
				}
				cv, bound := get(l)
				if !bound || cv.Kind != interp.Int {
					continue
				}
				av, tracked := res.ValueAt(pt, l)
				iv := av.Itv()
				if !tracked || iv.IsBot() {
					continue // summary cells are materialized lazily concretely
				}
				if iv.Lo().IsFinite() && cv.N < iv.Lo().Int() || iv.Hi().IsFinite() && cv.N > iv.Hi().Int() {
					bad = fmt.Errorf("point %d loc %s: concrete %d outside %s", pt, prog.Locs.String(l), cv.N, iv)
					return
				}
			}
		},
	})
	var trap *interp.Trap
	if err != nil && !errors.As(err, &trap) {
		return fmt.Errorf("interpreter: %w", err)
	}
	return bad
}

// checkCheckers compares each restricted per-checker solve of in with the
// alarms of its kind of a full run on the sequential solver. The restricted
// solves are sequential, and their exactness rests on sharing its widening
// order: the component solver the CLI runs by default can widen elsewhere
// and report other alarms on generated programs (seed 22 of checkers-3k has
// two buffer overruns that only the sequential solvers report).
func checkCheckers(in input, opt core.Options, runs []*core.CheckerRun) error {
	opt.Workers = 0
	seq, err := core.AnalyzeSource(in.name, in.src, opt)
	if err != nil {
		return err
	}
	full := seq.Alarms()
	for _, cr := range runs {
		var want, got []string
		for _, a := range full {
			if a.Kind == cr.Kind {
				want = append(want, a.String())
			}
		}
		for _, a := range cr.Alarms {
			got = append(got, a.String())
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("%v: restricted alarms %v, sequential full run %v", cr.Kind, got, want)
		}
	}
	return nil
}

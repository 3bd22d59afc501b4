package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/check"
	"sparrow/internal/ir"
)

// TestAnalyzeCheckerPrecondition checks AnalyzeChecker's guard: it needs
// a completed sparse interval run on the data-dependency graph.
func TestAnalyzeCheckerPrecondition(t *testing.T) {
	for _, opt := range []Options{
		{Domain: Interval, Mode: Base},
		{Domain: Interval, Mode: Sparse, DefUseChains: true},
	} {
		res, err := AnalyzeSource("demo.c", demo, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.AnalyzeChecker(check.BufferOverrun); err == nil {
			t.Errorf("AnalyzeChecker on %v/%v (duchains=%v): want error", opt.Domain, opt.Mode, opt.DefUseChains)
		}
	}
}

// sharedSolveSources are the programs of the solve-sharing tests: the
// corpus, three small generated programs and one gen-3000 program.
func sharedSolveSources(t testing.TB) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".c") {
			srcs[e.Name()] = corpusFile(t, e.Name())
		}
	}
	for seed := uint64(41); seed < 44; seed++ {
		srcs[fmt.Sprintf("gen%d.c", seed)] = cgen.Generate(cgen.Default(seed, 120))
	}
	srcs["gen3000.c"] = cgen.Generate(cgen.Default(7<<16, 3000))
	return srcs
}

// analyzeAllKinds is the full sparse interval run the restricted pipelines
// start from.
func analyzeAllKinds(t testing.TB, name, src string) *Result {
	t.Helper()
	res, err := AnalyzeSource(name, src, Options{Domain: Interval, Mode: Sparse, Checkers: check.AllKinds})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRun reports how got differs from want in everything a shared solve
// must reproduce: alarms, universe and graph sizes, and solver steps.
func sameRun(got, want *CheckerRun) string {
	if got.Kind != want.Kind || got.Keep != want.Keep || got.Nodes != want.Nodes ||
		got.Rows != want.Rows || got.Triples != want.Triples || got.Steps != want.Steps {
		return fmt.Sprintf("%v keep %d nodes %d rows %d triples %d steps %d; want %v %d %d %d %d %d",
			got.Kind, got.Keep, got.Nodes, got.Rows, got.Triples, got.Steps,
			want.Kind, want.Keep, want.Nodes, want.Rows, want.Triples, want.Steps)
	}
	if g, w := alarmStrings(got.Alarms), alarmStrings(want.Alarms); !slices.Equal(g, w) {
		return fmt.Sprintf("%v alarms %v; want %v", got.Kind, g, w)
	}
	return ""
}

func alarmStrings(as []check.Alarm) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return out
}

// TestSharedSolveExact pins the sharing contract: whatever order the kinds
// run in on one Result, each run equals that kind's run alone on a fresh
// Result, and a run reuses a solve exactly when its keep set equals the
// previous run's.
func TestSharedSolveExact(t *testing.T) {
	orders := [][]check.Kind{
		{check.BufferOverrun, check.NullDeref, check.DivByZero, check.UninitRead},
		{check.BufferOverrun, check.UninitRead, check.NullDeref, check.DivByZero},
	}
	for name, src := range sharedSolveSources(t) {
		alone := map[check.Kind]*CheckerRun{}
		for _, k := range check.AllKinds {
			run, err := analyzeAllKinds(t, name, src).AnalyzeChecker(k)
			if err != nil {
				t.Fatal(err)
			}
			if run.SharedWith != nil {
				t.Fatalf("%s %v: first run on a fresh Result shared %v", name, k, run.SharedWith)
			}
			alone[k] = run
		}
		for _, order := range orders {
			res := analyzeAllKinds(t, name, src)
			shared := 0
			var prevKeep []ir.LocID
			var solvedBy check.Kind
			for i, k := range order {
				keep := res.keepSet(k)
				run, err := res.AnalyzeChecker(k)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameRun(run, alone[k]); diff != "" {
					t.Errorf("%s order %v: %s", name, order, diff)
				}
				equal := i > 0 && slices.Equal(keep, prevKeep)
				switch {
				case equal && (run.SharedWith == nil || *run.SharedWith != solvedBy):
					t.Errorf("%s order %v: %v has the keep set of %v's solve but SharedWith = %v",
						name, order, k, solvedBy, run.SharedWith)
				case !equal && run.SharedWith != nil:
					t.Errorf("%s order %v: %v shares %v's solve with a different keep set",
						name, order, k, *run.SharedWith)
				case equal && run.SolveTime != 0:
					t.Errorf("%s order %v: shared %v reports solve time %v", name, order, k, run.SolveTime)
				}
				if equal {
					shared++
				} else {
					solvedBy = k
				}
				prevKeep = keep
			}
			if shared == 0 && slices.Equal(order, orders[0]) {
				t.Errorf("%s order %v: no run shared a solve (buf and null close alike on every program here)", name, order)
			}
		}
	}
}

var corpusDir = filepath.Join("..", "..", "testdata", "corpus")

// corpusFile reads one corpus program.
func corpusFile(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// BenchmarkAnalyzeCheckers times the restricted per-checker layer alone:
// all four kinds, sequentially, on one gen-3000 program, from a cold
// closure index and an empty solve memo each iteration.
func BenchmarkAnalyzeCheckers(b *testing.B) {
	res := analyzeAllKinds(b, "gen3000.c", cgen.Generate(cgen.Default(7<<16, 3000)))
	for b.Loop() {
		res.closure, res.lastSolve = nil, nil
		for _, k := range check.AllKinds {
			if _, err := res.AnalyzeChecker(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Benchmarks regenerating the paper's evaluation, one testing.B benchmark
// per table/figure (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable1Characteristics   Table 1 (frontend + pre-analysis)
//	BenchmarkTable2Interval/<mode>   Table 2 (Interval_{vanilla,base,sparse})
//	BenchmarkTable3Octagon/<mode>    Table 3 (Octagon_{vanilla,base,sparse})
//	BenchmarkDepsRepr/<store>        Section 5: dependency storage (E4)
//	BenchmarkBypassAblation/<arm>    Section 5: chain bypass (E5)
//
// Run with: go test -bench=. -benchmem
// The full tables (with timings, memory, speedup columns) are printed by
// cmd/exptables.
package sparrow_test

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/core"
	"sparrow/internal/deps"
	"sparrow/internal/dug"
	"sparrow/internal/exp"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
	"sparrow/internal/solver/sparse"
)

// benchProgram caches one mid-size benchmark program per scale.
func benchProgram(b *testing.B, stmts int) (string, *ir.Program, *prean.Result) {
	b.Helper()
	bench := exp.Benchmark{Name: "bench", Seed: 5150, Stmts: stmts, SCC: 4}
	src := bench.Source()
	f, err := parser.Parse("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		b.Fatal(err)
	}
	return src, prog, prean.Run(prog)
}

// BenchmarkTable1Characteristics measures the cost of producing the Table 1
// rows: parse, lower, and pre-analyze.
func BenchmarkTable1Characteristics(b *testing.B) {
	bench := exp.Benchmark{Name: "t1", Seed: 5150, Stmts: 2000, SCC: 4}
	src := bench.Source()
	b.ResetTimer()
	for b.Loop() {
		f, err := parser.Parse("t1.c", src)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := lower.File(f)
		if err != nil {
			b.Fatal(err)
		}
		pre := prean.Run(prog)
		_ = prog.NumStatements() + prog.NumBlocks() + pre.CG.MaxSCC() + prog.Locs.Len()
	}
}

// BenchmarkTable2Interval measures the three interval analyzers of Table 2
// on the same program (vanilla runs a smaller program: it is the analyzer
// the paper shows failing to scale).
func BenchmarkTable2Interval(b *testing.B) {
	for _, tc := range []struct {
		mode  core.Mode
		stmts int
	}{
		{core.Vanilla, 500},
		{core.Base, 2000},
		{core.Sparse, 2000},
	} {
		src, _, _ := benchProgram(b, tc.stmts)
		b.Run(fmt.Sprintf("%v-%d", tc.mode, tc.stmts), func(b *testing.B) {
			for b.Loop() {
				_, err := core.AnalyzeSource("bench.c", src, core.Options{
					Domain: core.Interval, Mode: tc.mode,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Octagon measures the octagon analyzers of Table 3.
func BenchmarkTable3Octagon(b *testing.B) {
	for _, tc := range []struct {
		mode  core.Mode
		stmts int
	}{
		{core.Vanilla, 200},
		{core.Base, 500},
		{core.Sparse, 500},
	} {
		src, _, _ := benchProgram(b, tc.stmts)
		b.Run(fmt.Sprintf("%v-%d", tc.mode, tc.stmts), func(b *testing.B) {
			for b.Loop() {
				_, err := core.AnalyzeSource("bench.c", src, core.Options{
					Domain: core.Octagon, Mode: tc.mode,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDepsRepr measures building the dependency-relation stores of
// Section 5 (E4): naive sets vs BDDs.
func BenchmarkDepsRepr(b *testing.B) {
	_, prog, pre := benchProgram(b, 2000)
	g := dug.Build(prog, pre, dug.Options{Bypass: true})
	b.Run("set", func(b *testing.B) {
		for b.Loop() {
			s := deps.NewSetStore()
			deps.FromGraph(g, s)
		}
	})
	b.Run("bdd", func(b *testing.B) {
		for b.Loop() {
			s := deps.NewBDDStore(g.NumNodes(), prog.Locs.Len())
			deps.FromGraph(g, s)
		}
	})
}

// BenchmarkBypassAblation measures the sparse fixpoint with and without the
// interprocedural chain-bypass optimization of Section 5 (E5).
func BenchmarkBypassAblation(b *testing.B) {
	_, prog, pre := benchProgram(b, 2000)
	for _, arm := range []struct {
		name   string
		bypass bool
	}{{"nobypass", false}, {"bypass", true}} {
		g := dug.Build(prog, pre, dug.Options{Bypass: arm.bypass})
		s := pre.Sem(prog)
		b.Run(arm.name, func(b *testing.B) {
			b.ReportMetric(float64(g.EdgeCount), "edges")
			for b.Loop() {
				sparse.Analyze(prog, pre, sparse.Intervals(s), g, sparse.Options{})
			}
		})
	}
}

// BenchmarkDUGBuild measures dependency-graph construction itself (the
// paper's "Dep" column is dominated by this phase).
func BenchmarkDUGBuild(b *testing.B) {
	_, prog, pre := benchProgram(b, 2000)
	for _, arm := range []struct {
		name   string
		bypass bool
	}{{"nobypass", false}, {"bypass", true}} {
		b.Run(arm.name, func(b *testing.B) {
			for b.Loop() {
				dug.Build(prog, pre, dug.Options{Bypass: arm.bypass})
			}
		})
	}
}

// BenchmarkGen1000Sparse is the macro-benchmark of the abstract-memory hot
// path: the full sparse interval analysis (pre-analysis, def-use graph,
// fixpoint) of the seeded gen-1000 suite program — the largest member of the
// BENCH_sparse.json suite. Run with -benchmem: the steady-state cost of the
// fixpoint is dominated by Join/Widen/Eq over persistent memories, so
// allocs/op is the number to watch across optimization PRs.
func BenchmarkGen1000Sparse(b *testing.B) {
	src := cgen.Generate(cgen.Default(43, 1000))
	f, err := parser.Parse("gen-1000.c", src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		pre := prean.Run(prog)
		g := dug.Build(prog, pre, dug.Options{Bypass: true})
		s := pre.Sem(prog)
		sparse.Analyze(prog, pre, sparse.Intervals(s), g, sparse.Options{})
	}
}

// BenchmarkGen1000SparseFix isolates the sparse fixpoint itself on the same
// program (pre-analysis and dependency graph built once, outside the loop).
func BenchmarkGen1000SparseFix(b *testing.B) {
	src := cgen.Generate(cgen.Default(43, 1000))
	f, err := parser.Parse("gen-1000.c", src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		b.Fatal(err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dug.Options{Bypass: true})
	s := pre.Sem(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		sparse.Analyze(prog, pre, sparse.Intervals(s), g, sparse.Options{})
	}
}

package octsparse

import (
	"runtime"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	"sparrow/internal/solver/sparse"
)

// BenchmarkOctFixpoint times the sparse octagon fixpoint alone on the first
// program of the seed-7 gen-2000 suite (octagon-2k). Parsing, the
// pre-analysis, the packs and the pack-level def-use graph (bypass on, the
// CLI default) are built before the timer starts. The steps, joins and
// widenings it reports pin the work a faster solve must still do.
func BenchmarkOctFixpoint(b *testing.B) {
	f, err := parser.Parse("gen-2000.c", cgen.Generate(cgen.Default(7<<16|0, 2000)))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		b.Fatal(err)
	}
	pre := prean.Run(prog)
	s, src := octsem.Source(prog, pre, pack.Build(prog, 0))
	g := dug.BuildFrom(src, dug.Options{Bypass: true})
	b.Run("gen-2000/global", func(b *testing.B) {
		b.ReportAllocs()
		var res *sparse.Result[*oct.Oct]
		for b.Loop() {
			res = sparse.Analyze(prog, pre, sparse.Octagons(s), g, sparse.Options{})
		}
		b.ReportMetric(float64(res.Steps), "steps")
		b.ReportMetric(float64(res.Joins), "joins")
		b.ReportMetric(float64(res.Widenings), "widenings")
	})
}

// TestOctFixpointAllocations bounds the bytes one octagon fixpoint
// allocates on the first program of the seed-7 gen-1000 suite. Nearly all
// of them are octagon matrices, so the bound pins the half-matrix layout:
// one solve allocates 7,686,736 bytes, against 13,102,069 when every
// matrix stored all (2n)² entries. The bound is 1.25 times the former.
func TestOctFixpointAllocations(t *testing.T) {
	const measured = 7686736
	f, err := parser.Parse("gen-1000.c", cgen.Generate(cgen.Default(7<<16, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	s, src := octsem.Source(prog, pre, pack.Build(prog, 0))
	g := dug.BuildFrom(src, dug.Options{Bypass: true})
	solve := func() { sparse.Analyze(prog, pre, sparse.Octagons(s), g, sparse.Options{}) }
	solve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		solve()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	if bound := uint64(measured) * 5 / 4; got > bound {
		t.Errorf("one solve allocates %d bytes, want at most %d", got, bound)
	}
}

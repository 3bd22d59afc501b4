package octsparse

import (
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

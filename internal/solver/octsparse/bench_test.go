package octsparse

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
)

// BenchmarkOctFixpoint times the sparse octagon fixpoint alone, the
// global-worklist solver (Analyze) against the component solver
// (AnalyzeComponents), on the first program of the seed-7 gen-2000 suite
// (octagon-2k). Parsing, the pre-analysis, the packs, the pack-level
// def-use graph (bypass on, the CLI default) and its partition are built
// before the timer starts.
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
	g.Partition()
	for _, arm := range []struct {
		name  string
		solve func() *Result
	}{
		{"global", func() *Result { return Analyze(prog, pre, s, g, Options{}) }},
		{"components", func() *Result { return AnalyzeComponents(prog, pre, s, g, Options{}) }},
	} {
		b.Run("gen-2000/"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for b.Loop() {
				res = arm.solve()
			}
			b.ReportMetric(float64(res.Steps), "steps")
		})
	}
}

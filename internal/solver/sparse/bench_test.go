package sparse

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/prean"
)

// BenchmarkFixpoint times the sparse interval fixpoint alone on the seeded
// gen-1000 program: the global-worklist solver (Analyze) against the
// component solver (AnalyzeComponents). Parsing, the pre-analysis, the
// def-use graph and its partition are built before the timer starts.
func BenchmarkFixpoint(b *testing.B) {
	f, err := parser.Parse("gen-1000.c", cgen.Generate(cgen.Default(43, 1000)))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		b.Fatal(err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dug.Options{Bypass: true})
	g.Partition()
	for _, arm := range []struct {
		name  string
		solve func() *Result
	}{
		{"global", func() *Result { return Analyze(prog, pre, g, Options{}) }},
		{"components", func() *Result { return AnalyzeComponents(prog, pre, g, Options{}) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for b.Loop() {
				res = arm.solve()
			}
			b.ReportMetric(float64(res.Steps), "steps")
		})
	}
}

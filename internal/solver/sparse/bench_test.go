package sparse

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/prean"
)

// BenchmarkFixpoint times the sparse interval fixpoint alone, the
// global-worklist solver (Analyze) against the component solver
// (AnalyzeComponents), on two programs:
//   - gen-1000: the seed-43 gen-1000 program of the benchmark suite;
//   - gen-4000: the first program of the seed-7 gen-4000 suite (sparse-4k),
//     the program BenchmarkBuild/gen-4000 uses.
//
// Parsing, the pre-analysis, the def-use graph (bypass on, the CLI default)
// and its partition are built before the timer starts.
func BenchmarkFixpoint(b *testing.B) {
	for _, in := range []struct {
		stmts int
		seed  uint64
	}{{1000, 43}, {4000, 7 << 16}} {
		name := fmt.Sprintf("gen-%d", in.stmts)
		f, err := parser.Parse(name+".c", cgen.Generate(cgen.Default(in.seed, in.stmts)))
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
			b.Run(name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				var res *Result
				for b.Loop() {
					res = arm.solve()
				}
				b.ReportMetric(float64(res.Steps), "steps")
			})
		}
	}
}

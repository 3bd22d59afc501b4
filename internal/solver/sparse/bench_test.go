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

// BenchmarkFixpoint times the sparse interval fixpoint alone on two
// programs:
//   - gen-1000: the seed-43 gen-1000 program of the benchmark suite;
//   - gen-4000: the first program of the seed-7 gen-4000 suite (sparse-4k),
//     the program BenchmarkBuild/gen-4000 uses.
//
// Parsing, the pre-analysis and the def-use graph (bypass on, the CLI
// default) are built before the timer starts.
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
		s := pre.Sem(prog)
		b.Run(name+"/global", func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for b.Loop() {
				res = Analyze(prog, pre, s, g, Options{})
			}
			b.ReportMetric(float64(res.Steps), "steps")
		})
	}
}

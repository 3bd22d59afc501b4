package sparse

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/lattice/val"
	"sparrow/internal/prean"
)

// BenchmarkFixpoint times the sparse interval fixpoint alone on two
// programs:
//   - gen-1000: the seed-43 gen-1000 program of the benchmark suite;
//   - gen-4000: the first program of the seed-7 gen-4000 suite (sparse-4k),
//     the program BenchmarkBuild/gen-4000 uses.
//
// Parsing, the pre-analysis and the def-use graph (bypass on, the CLI
// default) are built before the timer starts. The steps, joins and
// widenings it reports pin the work a faster solve must still do.
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
			var res *Result[val.Val]
			for b.Loop() {
				res = Analyze(prog, pre, Intervals(s), g, Options{})
			}
			b.ReportMetric(float64(res.Steps), "steps")
			b.ReportMetric(float64(res.Joins), "joins")
			b.ReportMetric(float64(res.Widenings), "widenings")
		})
	}
}

// TestFixpointAllocations bounds the allocations of one interval fixpoint
// on the first program of the seed-7 gen-1000 suite. A join whose result
// equals an operand shares that operand's reference components, so the
// solve allocates little beyond its slot arrays: 749 allocations, against
// 2,721 when every such join built a copy. The bound is twice the former.
func TestFixpointAllocations(t *testing.T) {
	const bound = 2 * 749
	f, err := parser.Parse("gen-1000.c", cgen.Generate(cgen.Default(7<<16, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dug.Options{Bypass: true})
	s := pre.Sem(prog)
	got := testing.AllocsPerRun(3, func() { Analyze(prog, pre, Intervals(s), g, Options{}) })
	if got > bound {
		t.Errorf("one solve allocates %v times, want at most %d", got, bound)
	}
}

package dense

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
)

// BenchmarkDense times the dense fixpoint alone in base mode (localized, the
// base-500 workload's mode) on the first program of the seed-7 gen-2000
// suite, in both domains. Parsing, the pre-analysis and the packs are built
// before the timer starts.
func BenchmarkDense(b *testing.B) {
	prog, pre := parse(b, cgen.Generate(cgen.Default(7<<16|0, 2000)))
	opt := Options{Localize: true}
	b.Run("gen-2000/interval", func(b *testing.B) {
		s := pre.Sem(prog)
		b.ReportAllocs()
		var res *Result[mem.Mem]
		for b.Loop() {
			res = Analyze(prog, pre, s, mem.Bot, pre.Accessed, IntervalStride, opt)
		}
		b.ReportMetric(float64(res.Steps), "steps")
	})
	b.Run("gen-2000/octagon", func(b *testing.B) {
		s, src := octsem.Source(prog, pre, pack.Build(prog, 0))
		accessed := func(p ir.ProcID) []pack.ID { return octsem.Accessed(src, p) }
		b.ReportAllocs()
		var res *Result[octsem.OMem]
		for b.Loop() {
			res = Analyze(prog, pre, s, s.TopState(), accessed, OctagonStride, opt)
		}
		b.ReportMetric(float64(res.Steps), "steps")
	})
}

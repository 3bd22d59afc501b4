package prean

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
)

// BenchmarkRun times the flow-insensitive pre-analysis of the first program
// of the seed-7 gen-4000 suite and of `cgen -seed 7 -stmts 12000`, reporting
// how many points the global-invariant sweep applied per run (the rest of
// the passes × points visits were skipped).
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  cgen.Config
	}{
		{"gen-4000", cgen.Default(7<<16|0, 4000)},
		{"gen-12000", cgen.Default(7, 12000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f, err := parser.Parse(bc.name+".c", cgen.Generate(bc.cfg))
			if err != nil {
				b.Fatal(err)
			}
			prog, err := lower.File(f)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var r *Result
			for b.Loop() {
				r = Run(prog)
			}
			b.ReportMetric(float64(r.applications), "applications/op")
			b.ReportMetric(float64(r.Passes*len(prog.Points)), "visits/op")
		})
	}
}

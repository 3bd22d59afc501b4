package check

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/prean"
	"sparrow/internal/solver/sparse"
)

// BenchmarkCheck times the default checkers over the sparse interval result
// of the first program of the seed-7 gen-4000 suite, as the CLI runs them
// by default. The frontend, the pre-analysis, the def-use graph and the
// fixpoint run before the timer starts.
func BenchmarkCheck(b *testing.B) {
	f, err := parser.Parse("gen-4000.c", cgen.Generate(cgen.Default(7<<16|0, 4000)))
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
	res := sparse.Analyze(prog, pre, s, g, sparse.Options{})
	memAt := func(pt ir.PointID) mem.Mem { return res.Acc[pt] }
	b.ReportAllocs()
	var alarms []Alarm
	for b.Loop() {
		alarms = Run(prog, s, res.Reached, memAt)
	}
	b.ReportMetric(float64(len(alarms)), "alarms")
}

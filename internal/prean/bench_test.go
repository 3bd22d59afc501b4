package prean

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
)

// BenchmarkRun times the flow-insensitive pre-analysis of the first program
// of the seed-7 gen-4000 suite.
func BenchmarkRun(b *testing.B) {
	f, err := parser.Parse("gen-4000.c", cgen.Generate(cgen.Default(7<<16|0, 4000)))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		Run(prog)
	}
}

package lower

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/parser"
)

// BenchmarkLower times lowering the parsed first program of the seed-7
// gen-4000 suite to the IR; parsing happens before the timer starts.
func BenchmarkLower(b *testing.B) {
	f, err := parser.Parse("gen-4000.c", cgen.Generate(cgen.Default(7<<16|0, 4000)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var n int
	for b.Loop() {
		prog, err := File(f)
		if err != nil {
			b.Fatal(err)
		}
		n = prog.NumStatements()
	}
	b.ReportMetric(float64(n), "statements")
}

package parser

import (
	"testing"

	"sparrow/internal/cgen"
)

// BenchmarkParse times parsing the first program of the seed-7 gen-4000
// suite, the program of the other per-layer benchmarks.
func BenchmarkParse(b *testing.B) {
	src := cgen.Generate(cgen.Default(7<<16|0, 4000))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse("gen-4000.c", src); err != nil {
			b.Fatal(err)
		}
	}
}

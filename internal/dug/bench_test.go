package dug_test

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/prean"
)

// BenchmarkBuild times the sequential def-use-graph build, bypass included,
// of the first program of the seed-7 gen-4000 suite — the configuration the
// CLI runs by default.
func BenchmarkBuild(b *testing.B) {
	prog := lowerSource(b, "gen-4000", cgen.Generate(cgen.Default(7<<16|0, 4000)))
	pre := prean.Run(prog)
	b.ReportAllocs()
	for b.Loop() {
		dug.Build(prog, pre, dug.Options{Bypass: true})
	}
}

package dug_test

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
)

// BenchmarkBuild times the sequential def-use-graph build, bypass included —
// the configuration the CLI runs by default — on both instantiations:
//   - gen-4000: the first program of the seed-7 gen-4000 suite (sparse-4k);
//   - gen-12000: the seed-7 gen-12000 program, the baseline program of the
//     per-layer profiles;
//   - octagon-2000: the octagon pack source of the first program of the
//     seed-7 gen-2000 suite (octagon-2k).
func BenchmarkBuild(b *testing.B) {
	for _, stmts := range []int{4000, 12000} {
		b.Run(fmt.Sprintf("gen-%d", stmts), func(b *testing.B) {
			prog := lowerSource(b, "gen", cgen.Generate(cgen.Default(7<<16|0, stmts)))
			pre := prean.Run(prog)
			b.ReportAllocs()
			for b.Loop() {
				dug.Build(prog, pre, dug.Options{Bypass: true})
			}
		})
	}
	b.Run("octagon-2000", func(b *testing.B) {
		prog := lowerSource(b, "gen", cgen.Generate(cgen.Default(7<<16|0, 2000)))
		_, src := octsem.Source(prog, prean.Run(prog), pack.Build(prog, 0))
		b.ReportAllocs()
		for b.Loop() {
			dug.BuildFrom(src, dug.Options{Bypass: true})
		}
	})
}

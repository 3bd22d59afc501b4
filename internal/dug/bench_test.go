package dug_test

import (
	"fmt"
	"runtime"
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
//   - gen-24000: the seed-7 gen-24000 program, where the builder's share of
//     an analysis has grown to about half;
//   - octagon-2000: the octagon pack source of the first program of the
//     seed-7 gen-2000 suite (octagon-2k).
func BenchmarkBuild(b *testing.B) {
	for _, stmts := range []int{4000, 12000, 24000} {
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

// TestBuildAllocations bounds the bytes one def-use-graph build allocates
// on the first program of the seed-7 gen-4000 suite, bypass on. The bound
// pins the lean build (DESIGN §34): one build allocates 11,364,024 bytes,
// against 16,319,288 when the triples were staged beside the arena, every
// point had three slice headers and the phis and the undo log grew by
// append, and 25,305,810 before that, when the bypass doubled its arena
// around the holes. The bound is 1.25 times the first.
func TestBuildAllocations(t *testing.T) {
	const measured = 11364024
	prog := lowerSource(t, "gen", cgen.Generate(cgen.Default(7<<16|0, 4000)))
	pre := prean.Run(prog)
	build := func() { dug.Build(prog, pre, dug.Options{Bypass: true}) }
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one build allocates %d bytes", got)
	if bound := uint64(measured) * 5 / 4; got > bound {
		t.Errorf("one build allocates %d bytes, want at most %d", got, bound)
	}
}

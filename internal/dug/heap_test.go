package dug

import (
	"runtime"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

// gen4000 lowers and pre-analyzes the first program of the seed-7 gen-4000
// suite (sparse-4k).
func gen4000(t *testing.T) (*ir.Program, *prean.Result) {
	t.Helper()
	f, err := parser.Parse("gen-4000.c", cgen.Generate(cgen.Default(7<<16|0, 4000)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog, prean.Run(prog)
}

// TestBuildLiveHeap bounds the live heap of one gen-4000 build, bypass on,
// at every stage boundary of the builder and at the peak of finalize: the
// heap in use after a collection there, minus that before the build, which
// holds the program and the pre-analysis. The build holds at most 8.15 MB
// above its inputs (DESIGN §34), against 11.82 MB when the triples were
// staged beside the arena, the row headers took 16 bytes and every point
// had three slice headers. The bound is 9.5 MB.
func TestBuildLiveHeap(t *testing.T) {
	const bound = 9.5e6
	prog, pre := gen4000(t)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var stages []string
	stageHook = func(stage string, b *builder) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		live := int64(ms.HeapAlloc) - int64(base)
		t.Logf("%-9s %5.2f MB live above the inputs", stage, float64(live)/1e6)
		if live > bound {
			t.Errorf("%s: %d bytes live above the inputs, want at most %d", stage, live, int64(bound))
		}
		stages = append(stages, stage)
		runtime.KeepAlive(b)
	}
	defer func() { stageHook = nil }()
	Build(prog, pre, Options{Bypass: true})
	if want := 5; len(stages) != want {
		t.Errorf("stages %v, want %d", stages, want)
	}
}

// TestStagingSize checks that the arena that stages the dependency triples is
// at most 5% larger than staging the triples it holds needs: the first SSA
// pass bounds the triples the renaming stages, and the bound must stay
// close.
func TestStagingSize(t *testing.T) {
	prog, pre := gen4000(t)
	checked := false
	stageHook = func(stage string, b *builder) {
		if stage != "staged" {
			return
		}
		checked = true
		need := stagingLen(b.nt)
		t.Logf("%d triples staged in %d entries, %d needed", b.nt, len(b.adj.refs), need)
		if len(b.adj.refs) > need*105/100 {
			t.Errorf("%d arena entries stage %d triples, which need %d", len(b.adj.refs), b.nt, need)
		}
	}
	defer func() { stageHook = nil }()
	Build(prog, pre, Options{Bypass: true})
	if !checked {
		t.Fatal("no staged stage")
	}
}

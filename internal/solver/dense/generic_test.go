package dense

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/mem"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
)

// referenceInput is one program of the reference test. noVanilla inputs
// skip the vanilla solves (Localize off), which take seconds each on a
// gen-2000 program.
type referenceInput struct {
	src       string
	noVanilla bool
}

// referenceInputs are the reference test's programs: the corpus files,
// cgen.Fuzz programs with gotos and switches, the first two programs of the
// seed-7 gen-500 suite (the base-500 benchmark workload) and the first two
// of the seed-7 gen-2000 suite. The gen-2000 programs skip the vanilla
// solves; the gen-500 ones cover vanilla solves at scale.
func referenceInputs(t *testing.T) map[string]referenceInput {
	t.Helper()
	srcs := map[string]referenceInput{}
	paths, err := filepath.Glob("../../../testdata/corpus/*.c")
	if err != nil || len(paths) != 14 {
		t.Fatalf("corpus glob: %d files, %v", len(paths), err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = referenceInput{src: string(b)}
	}
	for _, seed := range []uint64{1, 2, 41} {
		srcs[fmt.Sprintf("fuzz-%d", seed)] = referenceInput{src: cgen.Generate(gotoSwitchFuzz(seed, 600))}
	}
	for i := uint64(0); i < 2; i++ {
		srcs[fmt.Sprintf("gen-500-7-%d", i)] = referenceInput{src: cgen.Generate(cgen.Default(7<<16|i, 500))}
		srcs[fmt.Sprintf("gen-2000-7-%d", i)] = referenceInput{src: cgen.Generate(cgen.Default(7<<16|i, 2000)), noVanilla: true}
	}
	return srcs
}

// gotoSwitchFuzz is the cgen.Fuzz configuration of seed with gotos and
// switches forced on.
func gotoSwitchFuzz(seed uint64, stmts int) cgen.Config {
	c := cgen.Fuzz(seed, stmts)
	c.Gotos = true
	if c.SwitchEvery == 0 {
		c.SwitchEvery = 5
	}
	return c
}

// checkGeneric solves src in both domains, vanilla and localized, with 0
// and 2 narrowing passes, and requires each generic result to equal the
// reference loop's. noVanilla skips the vanilla solves.
func checkGeneric(t *testing.T, name, src string, noVanilla bool) {
	t.Helper()
	f, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	pre := prean.Run(prog)
	isem := pre.Sem(prog)
	osem, dsrc := octsem.Source(prog, pre, pack.Build(prog, 0))
	for _, localize := range []bool{false, true} {
		if noVanilla && !localize {
			continue
		}
		for _, narrow := range []int{0, 2} {
			opt := Options{Localize: localize, Narrow: narrow}
			label := fmt.Sprintf("%s localize=%v narrow=%d", name, localize, narrow)
			assertSameDense(t, label+" interval",
				refAnalyze(prog, pre, isem, opt),
				analyzeInterval(prog, pre, opt), mem.Mem.Eq)
			assertSameDense(t, label+" octagon",
				refAnalyzeOct(prog, pre, osem, dsrc, opt),
				analyzeOctagon(prog, pre, osem, dsrc, opt), octsem.OMem.Eq)
		}
	}
}

// assertSameDense requires equal work counters, reachability, and eq
// memories at every point.
func assertSameDense[M fmt.Stringer](t *testing.T, label string, want, got *Result[M], eq func(M, M) bool) {
	t.Helper()
	if want.Steps != got.Steps || want.Joins != got.Joins || want.Widenings != got.Widenings || want.Bypasses != got.Bypasses {
		t.Errorf("%s: steps/joins/widenings/bypasses %d/%d/%d/%d vs %d/%d/%d/%d", label,
			want.Steps, want.Joins, want.Widenings, want.Bypasses, got.Steps, got.Joins, got.Widenings, got.Bypasses)
	}
	bad := 0
	for pt := range want.In {
		if bad >= 5 {
			return
		}
		if want.Reached[pt] != got.Reached[pt] {
			bad++
			t.Errorf("%s: point %d reachability %v vs %v", label, pt, want.Reached[pt], got.Reached[pt])
		}
		if !eq(want.In[pt], got.In[pt]) {
			bad++
			t.Errorf("%s: point %d In differs:\n want %s\n got  %s", label, pt, want.In[pt], got.In[pt])
		}
	}
}

// TestDenseMatchesReference pins the generic loop to the two reference
// loops over the corpus, goto/switch fuzz programs, gen-500 and gen-2000.
func TestDenseMatchesReference(t *testing.T) {
	for name, in := range referenceInputs(t) {
		t.Run(name, func(t *testing.T) { checkGeneric(t, name, in.src, in.noVanilla) })
	}
}

// FuzzDense compares the generic loop with the references on cgen.Fuzz
// programs with gotos and switches, corpus files, and the seed-7 gen-500
// programs of the base-500 benchmark workload. The gen-500 inputs skip the
// vanilla solves (about three quarters of their cost), so a short
// campaign gets past its baseline inputs and mutates;
// TestDenseMatchesReference keeps that corner on gen-500 programs 0 and 1.
func FuzzDense(f *testing.F) {
	f.Add(uint8(0), uint64(3))
	f.Add(uint8(1), uint64(7))
	f.Add(uint8(1), uint64(41))
	f.Add(uint8(2), uint64(5))
	paths, err := filepath.Glob("../../../testdata/corpus/*.c")
	if err != nil || len(paths) == 0 {
		f.Fatalf("corpus glob: %d files, %v", len(paths), err)
	}
	f.Fuzz(func(t *testing.T, set uint8, seed uint64) {
		switch set % 3 {
		case 0:
			p := paths[seed%uint64(len(paths))]
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			checkGeneric(t, filepath.Base(p), string(b), false)
		case 1:
			checkGeneric(t, fmt.Sprintf("fuzz-%d", seed), cgen.Generate(gotoSwitchFuzz(seed, 300)), false)
		default:
			checkGeneric(t, fmt.Sprintf("gen-500-7-%d", seed%512), cgen.Generate(cgen.Default(7<<16|seed%512, 500)), true)
		}
	})
}

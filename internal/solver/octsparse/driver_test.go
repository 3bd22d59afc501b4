package octsparse

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	"sparrow/internal/solver/sparse"
)

// driverInputs are the reference test's programs: the corpus files, a
// recursive call that swaps its formals (testdata/regress/swapformals.c),
// cgen.Fuzz programs with gotos and switches, and the first two programs of
// the seed-7 gen-2000 suite (octagon-2k).
func driverInputs(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	paths, err := filepath.Glob("../../../testdata/corpus/*.c")
	if err != nil || len(paths) != 14 {
		t.Fatalf("corpus glob: %d files, %v", len(paths), err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	b, err := os.ReadFile("../../../testdata/regress/swapformals.c")
	if err != nil {
		t.Fatal(err)
	}
	srcs["swapformals.c"] = string(b)
	for _, seed := range []uint64{1, 2, 41} {
		srcs[fmt.Sprintf("fuzz-%d", seed)] = cgen.Generate(gotoSwitchFuzz(seed, 600))
	}
	for i := uint64(0); i < 2; i++ {
		srcs[fmt.Sprintf("gen-2000-7-%d", i)] = cgen.Generate(cgen.Default(7<<16|i, 2000))
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

// checkOctDriver solves src with and without the chain bypass and requires
// each result to equal the reference solver's.
func checkOctDriver(t *testing.T, name, src string) {
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
	s, dsrc := octsem.Source(prog, pre, pack.Build(prog, 0))
	for _, bypass := range []bool{true, false} {
		g := dug.BuildFrom(dsrc, dug.Options{Bypass: bypass})
		label := fmt.Sprintf("%s bypass=%v", name, bypass)
		assertSameOctSolve(t, label+" global", g, refAnalyze(prog, pre, s, g, Options{}), sparse.Analyze(prog, pre, sparse.Octagons(s), g, Options{}))
	}
}

// sameOMem reports whether a and b bind the same packs to equal octagons.
func sameOMem(a, b octsem.OMem) bool {
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Range(func(p pack.ID, o *oct.Oct) bool {
		bo := b.Get(p)
		same = bo != nil && o.Eq(bo)
		return same
	})
	return same
}

// assertSameOctSolve requires equal work counters, reachability, and per-pack equal memories at every node.
func assertSameOctSolve(t *testing.T, label string, g *dug.Graph, want *refResult, got *sparse.Result[*oct.Oct]) {
	t.Helper()
	if want.Steps != got.Steps || want.Joins != got.Joins || want.Widenings != got.Widenings {
		t.Errorf("%s: steps/joins/widenings %d/%d/%d vs %d/%d/%d", label,
			want.Steps, want.Joins, want.Widenings, got.Steps, got.Joins, got.Widenings)
	}
	bad := 0
	for pt := range want.Reached {
		if want.Reached[pt] != got.Reached[pt] && bad < 5 {
			bad++
			t.Errorf("%s: point %d reachability %v vs %v", label, pt, want.Reached[pt], got.Reached[pt])
		}
	}
	for n := 0; n < g.NumNodes() && bad < 5; n++ {
		for _, m := range []struct {
			kind      string
			want, got octsem.OMem
		}{{"Acc", want.Acc[n], octsem.FromSorted(got.Acc(dug.NodeID(n)))}, {"Out", want.Out[n], octsem.FromSorted(got.Out(dug.NodeID(n)))}} {
			if !sameOMem(m.want, m.got) {
				bad++
				t.Errorf("%s: node %d %s differs:\n want %s\n got  %s", label, n, m.kind, m.want, m.got)
			}
		}
	}
}

// TestOctDriverMatchesReference pins the shared driver to the reference
// octagon solvers over the corpus, goto/switch fuzz programs and gen-2000.
func TestOctDriverMatchesReference(t *testing.T) {
	for name, src := range driverInputs(t) {
		t.Run(name, func(t *testing.T) { checkOctDriver(t, name, src) })
	}
}

// FuzzOctDriver compares the driver with the reference on cgen.Fuzz
// programs with gotos and switches; the seed corpus also draws corpus files
// and gen-2000 programs.
func FuzzOctDriver(f *testing.F) {
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
			checkOctDriver(t, filepath.Base(p), string(b))
		case 1:
			checkOctDriver(t, fmt.Sprintf("fuzz-%d", seed), cgen.Generate(gotoSwitchFuzz(seed, 300)))
		default:
			checkOctDriver(t, fmt.Sprintf("gen-2000-7-%d", seed%96), cgen.Generate(cgen.Default(7<<16|seed%96, 2000)))
		}
	})
}

package sparse

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/prean"
)

// componentCorpus exercises the component solver's interesting shapes:
// chains (condensation edges), loops (nontrivial SCCs), calls and recursion
// (reach marks that leave the component DAG), and function pointers.
var componentCorpus = []struct {
	name string
	src  string
}{
	{"straightline", `
int g; int h;
int main() { int x; x = 2; g = x*3; h = g - 1; return 0; }
`},
	{"branch", `
int g;
int main() {
	int x; x = input();
	if (x > 0) { g = x; } else { g = -1; }
	return 0;
}
`},
	{"loop", `
int g;
int main() {
	int i; int s; s = 0;
	for (i = 0; i < 10; i++) { s = s + i; }
	g = s;
	return 0;
}
`},
	{"nestedloops", `
int g;
int main() {
	int i; int j; int s; s = 0;
	for (i = 0; i < 8; i++) {
		for (j = 0; j < i; j++) { s = s + j; }
	}
	g = s;
	return 0;
}
`},
	{"pointers", `
int a; int b; int g;
int main() {
	int *p;
	a = 1; b = 2;
	if (input()) { p = &a; } else { p = &b; }
	*p = 7;
	g = a + b;
	return 0;
}
`},
	{"calls", `
int g;
int add(int x, int y) { return x + y; }
void bump() { g = g + 1; }
int main() {
	g = add(3, 4);
	bump();
	bump();
	return 0;
}
`},
	{"recursion", `
int g;
int down(int n) { if (n <= 0) { return 0; } return down(n-1); }
int main() { g = down(9); return 0; }
`},
	{"funcptr", `
int g;
int one() { return 1; }
int two() { return 2; }
int main() {
	int (*fp)(void);
	if (input()) { fp = one; } else { fp = two; }
	g = fp();
	return 0;
}
`},
	{"islands", `
int g; int h;
void f() { g = 1; }
void k() { h = 2; }
int main() { f(); k(); return 0; }
`},
}

func buildPipeline(t *testing.T, src string, dopt dug.Options) (*pipeline, dug.Options) {
	t.Helper()
	f, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dopt)
	return &pipeline{prog: prog, pre: pre, g: g}, dopt
}

// assertSameResult checks that two sparse results agree exactly: identical
// reachability and semantically equal Acc/Out memories at every node.
func assertSameResult(t *testing.T, label string, g *dug.Graph, a, b *Result) {
	t.Helper()
	for pt := range a.Reached {
		if a.Reached[pt] != b.Reached[pt] {
			t.Errorf("%s: point %d reachability %v vs %v", label, pt, a.Reached[pt], b.Reached[pt])
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		if !a.Acc[n].Eq(b.Acc[n]) {
			t.Errorf("%s: node %d Acc differs:\n a %s\n b %s", label, n, a.Acc[n], b.Acc[n])
		}
		if !a.Out[n].Eq(b.Out[n]) {
			t.Errorf("%s: node %d Out differs:\n a %s\n b %s", label, n, a.Out[n], b.Out[n])
		}
	}
}

// TestComponentsMatchesGlobal checks the component solver against the
// global-worklist solver over the corpus, for both bypass modes, with and
// without narrowing.
func TestComponentsMatchesGlobal(t *testing.T) {
	for _, prog := range componentCorpus {
		for _, bypass := range []bool{false, true} {
			for _, narrow := range []int{0, 2} {
				p, _ := buildPipeline(t, prog.src, dug.Options{Bypass: bypass})
				seq := Analyze(p.prog, p.pre, p.g, Options{Narrow: narrow})
				comp := AnalyzeComponents(p.prog, p.pre, p.g, Options{Narrow: narrow})
				label := fmt.Sprintf("%s bypass=%v narrow=%d", prog.name, bypass, narrow)
				assertSameResult(t, label, p.g, seq, comp)
			}
		}
	}
}

// TestComponentsVsGlobalGenerated stresses the two solvers against each
// other over machine-generated programs with switches and gotos. Widening
// makes the exact fixpoint schedule-dependent (which can even shift
// reachability through assume refutation), so — exactly as the
// sparse-vs-dense differential does — generated programs assert value
// comparability on commonly-reached points rather than bit equality (the
// handwritten corpus above does assert exact equality).
func TestComponentsVsGlobalGenerated(t *testing.T) {
	for seed := uint64(60); seed < 66; seed++ {
		cfg := cgen.Default(seed, 250)
		cfg.SwitchEvery = 6
		cfg.Gotos = seed%2 == 0
		src := cgen.Generate(cfg)
		f, err := parser.Parse("gen.c", src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lower.File(f)
		if err != nil {
			t.Fatal(err)
		}
		pre := prean.Run(prog)
		for _, bypass := range []bool{false, true} {
			g := dug.Build(prog, pre, dug.Options{Bypass: bypass})
			seq := Analyze(prog, pre, g, Options{Narrow: 2})
			comp := AnalyzeComponents(prog, pre, g, Options{Narrow: 2})
			label := fmt.Sprintf("seed %d bypass=%v", seed, bypass)
			mismatches := 0
			for n := 0; n < g.PointCount && mismatches <= 5; n++ {
				if !seq.Reached[n] || !comp.Reached[n] {
					continue
				}
				for _, l := range g.Defs[dug.NodeID(n)] {
					sv := seq.Out[n].Get(l)
					cv := comp.Out[n].Get(l)
					if !sv.LessEq(cv) && !cv.LessEq(sv) {
						mismatches++
						t.Errorf("%s node %d loc %s: incomparable:\n global %s\n components %s",
							label, n, prog.Locs.String(l), sv.String(), cv.String())
					}
				}
			}
		}
	}
}

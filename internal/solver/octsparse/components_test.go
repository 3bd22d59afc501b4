package octsparse

import (
	"fmt"
	"testing"

	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
)

// componentCorpus mirrors the interval solver's corpus: chains, loops
// (nontrivial SCCs), calls and recursion (reach marks that leave the
// component DAG), pointers, and function pointers.
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
	{"relational", `
int g;
int main() {
	int i; int j;
	j = 0;
	for (i = 0; i < 20; i++) { j = i; }
	g = j - i;
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

type compPipeline struct {
	prog  *ir.Program
	pre   *prean.Result
	packs *pack.Set
	sem   *octsem.Sem
	g     *dug.Graph
}

func buildCompPipeline(t *testing.T, src string, bypass bool) *compPipeline {
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
	packs := pack.Build(prog, 0)
	s, dsrc := octsem.Source(prog, pre, packs)
	g := dug.BuildFrom(dsrc, dug.Options{Bypass: bypass})
	return &compPipeline{prog: prog, pre: pre, packs: packs, sem: s, g: g}
}

// omemAgree compares two pack states under the given keys: both nil, or
// semantically equal octagons.
func omemAgree(a, b octsem.OMem, keys []pack.ID) (pack.ID, bool) {
	for _, l := range keys {
		av, bv := a.Get(l), b.Get(l)
		switch {
		case av == nil && bv == nil:
		case av == nil || bv == nil || !av.Eq(bv):
			return l, false
		}
	}
	return 0, true
}

// assertSameOctResult checks that two octagon sparse results agree exactly:
// identical reachability and equal tracked pack states at every node.
func assertSameOctResult(t *testing.T, label string, g *dug.Graph, a, b *Result) {
	t.Helper()
	for pt := range a.Reached {
		if a.Reached[pt] != b.Reached[pt] {
			t.Errorf("%s: point %d reachability %v vs %v", label, pt, a.Reached[pt], b.Reached[pt])
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		if l, ok := omemAgree(a.Out[n], b.Out[n], g.Defs[dug.NodeID(n)]); !ok {
			t.Errorf("%s: node %d Out differs at pack %d", label, n, l)
		}
		if l, ok := omemAgree(a.Acc[n], b.Acc[n], g.Uses[dug.NodeID(n)]); !ok {
			t.Errorf("%s: node %d Acc differs at pack %d", label, n, l)
		}
	}
}

// TestOctComponentsMatchesGlobal checks the component solver against the
// global-worklist solver over the corpus, for both bypass modes.
func TestOctComponentsMatchesGlobal(t *testing.T) {
	for _, prog := range componentCorpus {
		for _, bypass := range []bool{false, true} {
			p := buildCompPipeline(t, prog.src, bypass)
			seq := Analyze(p.prog, p.pre, p.sem, p.g, Options{})
			comp := AnalyzeComponents(p.prog, p.pre, p.sem, p.g, Options{})
			label := fmt.Sprintf("%s bypass=%v", prog.name, bypass)
			assertSameOctResult(t, label, p.g, seq, comp)
		}
	}
}

package dense

import (
	"testing"

	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/mem"
	"sparrow/internal/prean"
)

// parse parses, lowers and pre-analyzes src.
func parse(t testing.TB, src string) (*ir.Program, *prean.Result) {
	t.Helper()
	f, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog, prean.Run(prog)
}

// analyzeInterval runs the interval instance of the solver the way core
// does: the interval semantics, the empty memory at main's entry, the
// pre-analysis access sets and a poll stride of 256.
func analyzeInterval(prog *ir.Program, pre *prean.Result, opt Options) *Result[mem.Mem] {
	s := pre.Sem(prog)
	return Analyze(prog, pre, s, mem.Bot, pre.Accessed, IntervalStride, opt)
}

// analyze parses, lowers, pre-analyzes and runs the interval solver.
func analyze(t *testing.T, src string, opt Options) (*ir.Program, *prean.Result, *Result[mem.Mem]) {
	t.Helper()
	prog, pre := parse(t, src)
	res := analyzeInterval(prog, pre, opt)
	if res.TimedOut {
		t.Fatalf("analysis timed out")
	}
	return prog, pre, res
}

// globalAtMainExit returns the interval of global `name` at main's exit.
func globalAtMainExit(t *testing.T, prog *ir.Program, res *Result[mem.Mem], name string) itv.Itv {
	t.Helper()
	loc, ok := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: name})
	if !ok {
		t.Fatalf("no global %q", name)
	}
	main := prog.ProcByName("main")
	return res.In[main.Exit].Get(loc).Itv()
}

func wantItv(t *testing.T, got itv.Itv, want itv.Itv, what string) {
	t.Helper()
	if !got.Eq(want) {
		t.Errorf("%s = %s want %s", what, got, want)
	}
}

func wantContains(t *testing.T, got itv.Itv, want itv.Itv, what string) {
	t.Helper()
	if !want.LessEq(got) {
		t.Errorf("%s = %s does not contain %s (unsound)", what, got, want)
	}
}

func TestConstantFlow(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() {
	int x;
	x = 3;
	g = x + 4;
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.Single(7), "g")
}

func TestBranchJoin(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() {
	int x;
	x = input();
	if (x > 0) { g = 1; } else { g = 2; }
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.OfInts(1, 2), "g")
}

func TestAssumeRefinement(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() {
	int x;
	x = input();
	if (x >= 0 && x < 10) {
		g = x;
	} else {
		g = 0;
	}
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.OfInts(0, 9), "g")
}

func TestUnreachableBranch(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() {
	int x;
	x = 5;
	if (x < 3) { g = 100; } else { g = 1; }
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.Single(1), "g")
}

func TestLoopWidening(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() {
	int i;
	i = 0;
	while (i < 100) {
		i = i + 1;
	}
	g = i;
	return 0;
}
`, Options{})
	// With widening (no narrowing) the exit refines i to >= 100; the assume
	// gives [100, +oo). With narrowing it becomes exactly [100,100].
	g := globalAtMainExit(t, prog, res, "g")
	wantContains(t, g, itv.Single(100), "g")
	if g.Lo().Cmp(itv.Fin(100)) != 0 {
		t.Errorf("g = %s want lower bound 100", g)
	}
}

func TestNarrowingRecovers(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() {
	int i;
	i = 0;
	while (i < 100) {
		i = i + 1;
	}
	g = i;
	return 0;
}
`, Options{Narrow: 8})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.Single(100), "g")
}

func TestPointerFlow(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() {
	int x;
	int *p;
	x = 1;
	p = &x;
	*p = 42;
	g = x;
	return 0;
}
`, Options{})
	// Strong update through the unique pointer target.
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.Single(42), "g")
}

func TestWeakUpdateTwoTargets(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int a; int b;
int main() {
	int *p;
	a = 1; b = 2;
	if (input()) { p = &a; } else { p = &b; }
	*p = 9;
	g = a;
	return 0;
}
`, Options{})
	// p may point to a or b: weak update leaves a in {1} ∪ {9}.
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.OfInts(1, 9), "g")
}

func TestInterprocedural(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int double_(int x) { return x + x; }
int main() {
	g = double_(21);
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.Single(42), "g")
}

func TestInterproceduralSideEffect(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
void setg(int v) { g = v; }
int main() {
	setg(7);
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.Single(7), "g")
}

func TestContextInsensitiveJoin(t *testing.T) {
	src := `
int g;
int id(int x) { return x; }
int main() {
	int a; int b;
	a = id(1);
	b = id(2);
	g = a + b;
	return 0;
}
`
	// Context-insensitivity joins both arguments: id returns [1,2]. With
	// access-based localization, a and b bypass the callee, so g = [2,4].
	prog, _, res := analyze(t, src, Options{Localize: true})
	g := globalAtMainExit(t, prog, res, "g")
	wantContains(t, g, itv.Single(3), "g")
	wantItv(t, g, itv.OfInts(2, 4), "g")
	// Vanilla flows caller locals through the callee, polluting `a` with the
	// second call site's state; the result is sound but coarser.
	progV, _, resV := analyze(t, src, Options{})
	gv := globalAtMainExit(t, progV, resV, "g")
	wantContains(t, gv, g, "vanilla g vs localized g")
}

func TestRecursion(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int down(int n) {
	if (n <= 0) return 0;
	return down(n - 1);
}
int main() {
	g = down(10);
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.Single(0), "g")
}

func TestFunctionPointers(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int one() { return 1; }
int two() { return 2; }
int main() {
	int (*fp)(void);
	if (input()) { fp = one; } else { fp = two; }
	g = fp();
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.OfInts(1, 2), "g")
}

func TestArraySmashing(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int a[10];
int main() {
	a[0] = 5;
	a[3] = 8;
	g = a[1];
	return 0;
}
`, Options{})
	// Smashed array: reads see the join of all writes (and initial 0).
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.OfInts(0, 8), "g")
}

func TestMallocFlow(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() {
	int *p;
	p = malloc(4);
	*p = 11;
	g = *p;
	return 0;
}
`, Options{})
	// Allocation contents start unknown and are weakly updated.
	g := globalAtMainExit(t, prog, res, "g")
	wantContains(t, g, itv.Single(11), "g")
}

func TestStructFieldsFlow(t *testing.T) {
	prog, _, res := analyze(t, `
struct S { int a; int b; };
int g;
struct S s;
int main() {
	struct S *p;
	s.a = 3;
	p = &s;
	p->b = 4;
	g = s.a + p->b;
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "g"), itv.Single(7), "g")
}

func TestGlobalInit(t *testing.T) {
	prog, _, res := analyze(t, `
int g = 5;
int h;
int main() {
	h = g + h;
	return 0;
}
`, Options{})
	wantItv(t, globalAtMainExit(t, prog, res, "h"), itv.Single(5), "h")
}

func TestLocalizationAgrees(t *testing.T) {
	src := `
int g; int h;
int helper(int x) { g = g + x; return g; }
int noop(int x) { return x; }
int main() {
	int i;
	g = 0;
	h = 3;
	for (i = 0; i < 4; i++) {
		h = noop(h);
		g = helper(i);
	}
	return g + h;
}
`
	progV, _, resV := analyze(t, src, Options{})
	progL, _, resL := analyze(t, src, Options{Localize: true})
	for _, name := range []string{"g", "h"} {
		v := globalAtMainExit(t, progV, resV, name)
		l := globalAtMainExit(t, progL, resL, name)
		if !v.Eq(l) {
			t.Errorf("%s: vanilla %s != localized %s", name, v, l)
		}
	}
}

func TestLocalizationDropsUnaccessed(t *testing.T) {
	prog, pre, res := analyze(t, `
int g; int unused_global;
int touch() { g = 1; return 0; }
int main() {
	unused_global = 42;
	touch();
	return 0;
}
`, Options{Localize: true})
	// Inside touch, unused_global must not be present.
	touch := prog.ProcByName("touch")
	loc, _ := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: "unused_global"})
	if res.In[touch.Entry].Has(loc) {
		t.Errorf("localization leaked unused_global into touch: %s", res.In[touch.Entry])
	}
	if ir.LocsContain(pre.Accessed(touch.ID), loc) {
		t.Errorf("accessed summary of touch includes unused_global")
	}
	// But it is restored after the call.
	wantItv(t, globalAtMainExit(t, prog, res, "unused_global"), itv.Single(42), "unused_global")
}

func TestTerminationPathological(t *testing.T) {
	// Nested loops with conditionally-coupled updates must terminate via
	// widening.
	_, _, res := analyze(t, `
int g;
int main() {
	int i; int j;
	i = 0;
	while (input()) {
		j = 0;
		while (j < i) { j = j + 2; i = i - 1; }
		i = i + 3;
	}
	g = i + j;
	return 0;
}
`, Options{})
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
}

func TestMemoryAbsentIsBot(t *testing.T) {
	prog, _, res := analyze(t, `
int g;
int main() { g = 1; return 0; }
`, Options{})
	main := prog.ProcByName("main")
	m := res.In[main.Exit]
	if !m.Get(ir.LocID(99999) % ir.LocID(prog.Locs.Len())).Itv().IsBot() {
		// Just exercise Get on an arbitrary in-range loc; absent must be bot.
		_ = m
	}
	var none mem.Mem
	if !none.Get(0).IsBot() {
		t.Error("zero memory Get not bottom")
	}
	_ = prog
}

func TestSemOutAccessor(t *testing.T) {
	prog, pre, res := analyze(t, `
int g;
int main() { g = 9; return 0; }
`, Options{})
	s := pre.Sem(prog)
	main := prog.ProcByName("main")
	for _, id := range main.Points {
		pt := prog.Point(id)
		if set, ok := pt.Cmd.(ir.Set); ok {
			if c, isC := set.E.(ir.Const); isC && c.V == 9 {
				out := res.Out(s, pt)
				if !out.Get(set.L).Itv().Eq(itv.Single(9)) {
					t.Errorf("Out after g := 9 is %s", out.Get(set.L))
				}
			}
		}
	}
}

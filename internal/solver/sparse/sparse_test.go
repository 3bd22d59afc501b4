package sparse

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/mem"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/solver/dense"
	"sparrow/internal/worklist"
)

type pipeline struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	res  *Result
}

func run(t *testing.T, src string, dopt dug.Options) *pipeline {
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
	res := Analyze(prog, pre, pre.Sem(prog), g, Options{})
	if res.TimedOut {
		t.Fatal("sparse analysis timed out")
	}
	return &pipeline{prog: prog, pre: pre, g: g, res: res}
}

// globalAtMainExit reads the sparse value of a global at the root exit (the
// pinned observability point: __start's exit uses everything the program
// defines and survives the bypass optimization).
func (p *pipeline) globalAtMainExit(t *testing.T, name string) itv.Itv {
	t.Helper()
	loc, ok := p.prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: name})
	if !ok {
		t.Fatalf("no global %q", name)
	}
	root := p.prog.ProcByID(p.prog.Main)
	m, tracked := p.res.ValueAt(p.g, root.Exit, loc)
	if !tracked {
		t.Fatalf("global %q not tracked at root exit", name)
	}
	return m.Get(loc).Itv()
}

func TestSparseConstantFlow(t *testing.T) {
	for _, bypass := range []bool{false, true} {
		p := run(t, `
int g;
int main() {
	int x;
	x = 3;
	g = x + 4;
	return 0;
}
`, dug.Options{Bypass: bypass})
		if got := p.globalAtMainExit(t, "g"); !got.Eq(itv.Single(7)) {
			t.Errorf("bypass=%v: g = %s want [7,7]", bypass, got)
		}
	}
}

func TestSparseInterprocedural(t *testing.T) {
	for _, bypass := range []bool{false, true} {
		p := run(t, `
int g;
void setg(int v) { g = v; }
int main() {
	g = 1;
	setg(7);
	return 0;
}
`, dug.Options{Bypass: bypass})
		// The strong definition in setg must kill the stale g=1: the sparse
		// value at main's exit is exactly [7,7], not [1,7].
		if got := p.globalAtMainExit(t, "g"); !got.Eq(itv.Single(7)) {
			t.Errorf("bypass=%v: g = %s want [7,7]", bypass, got)
		}
	}
}

func TestSparseDeepCallChain(t *testing.T) {
	// The f→g→h shape of Section 5: x defined in main, used only in h3,
	// passing through h1 and h2 which never touch it.
	src := `
int x;
int g;
int h3() { g = x; return 0; }
int h2() { h3(); return 0; }
int h1() { h2(); return 0; }
int main() {
	x = 5;
	h1();
	return 0;
}
`
	for _, bypass := range []bool{false, true} {
		p := run(t, src, dug.Options{Bypass: bypass})
		if got := p.globalAtMainExit(t, "g"); !got.Eq(itv.Single(5)) {
			t.Errorf("bypass=%v: g = %s want [5,5]", bypass, got)
		}
	}
	// Bypass must reduce the number of dependency edges on this chain.
	pNo := run(t, src, dug.Options{})
	pYes := run(t, src, dug.Options{Bypass: true})
	if pYes.g.EdgeCount >= pNo.g.EdgeCount {
		t.Errorf("bypass did not reduce edges: %d -> %d", pNo.g.EdgeCount, pYes.g.EdgeCount)
	}
}

func TestSparseLoop(t *testing.T) {
	p := run(t, `
int g;
int main() {
	int i;
	i = 0;
	while (i < 100) { i = i + 1; }
	g = i;
	return 0;
}
`, dug.Options{Bypass: true})
	got := p.globalAtMainExit(t, "g")
	if !itv.Single(100).LessEq(got) {
		t.Errorf("g = %s does not contain 100", got)
	}
	if got.Lo().Cmp(itv.Fin(100)) != 0 {
		t.Errorf("g = %s want lower bound 100", got)
	}
}

func TestSparseRecursion(t *testing.T) {
	p := run(t, `
int g;
int count(int n) {
	if (n <= 0) return 0;
	return count(n - 1) + 1;
}
int main() {
	g = count(10);
	return 0;
}
`, dug.Options{Bypass: true})
	got := p.globalAtMainExit(t, "g")
	if !itv.Single(10).LessEq(got) || !itv.Single(0).LessEq(got) {
		t.Errorf("g = %s must contain [0,10] (unsound otherwise)", got)
	}
}

func TestSparseReachability(t *testing.T) {
	p := run(t, `
int g;
int main() {
	int x;
	x = 5;
	if (x < 3) { g = 100; } else { g = 1; }
	return 0;
}
`, dug.Options{Bypass: true})
	if got := p.globalAtMainExit(t, "g"); !got.Eq(itv.Single(1)) {
		t.Errorf("g = %s want [1,1] (dead branch must not contribute)", got)
	}
}

func TestSparseExample1PointerAnalysis(t *testing.T) {
	// The paper's running example (Examples 1–5): x := &y; *p := &z; y := x
	// with p pointing to {x,y}. Built with C pointers-to-pointers.
	p := run(t, `
int z;
int *y;
int **x;
int **w;
int ***p;
int main() {
	if (input()) { p = &x; } else { p = &w; }
	x = &y;     /* 10: x := &y  */
	*p = &z;    /* 11: *p := &z  — may update x (weak) */
	w = *x;     /* 12: uses x */
	return 0;
}
`, dug.Options{Bypass: true})
	_ = p // reaching here without divergence is the point; values checked below
}

// TestDifferentialSparseVsBase is the repository's E6: the sparse fixpoint
// must agree with the dense access-localized fixpoint (its underlying
// analysis) on every D̂(c) entry of every commonly-reached point (Lemma 2).
func TestDifferentialSparseVsBase(t *testing.T) {
	programs := []struct {
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
		{"arrays", `
int g;
int a[8];
int main() {
	int i;
	for (i = 0; i < 8; i++) { a[i] = i; }
	g = a[3];
	return 0;
}
`},
		{"structs", `
struct S { int v; int w; };
struct S s;
int g;
void setv(int x) { s.v = x; }
int main() {
	setv(4);
	s.w = s.v + 1;
	g = s.w;
	return 0;
}
`},
		{"deepchain", `
int x; int g;
int h3() { g = x + 1; return 0; }
int h2() { h3(); return 0; }
int h1() { h2(); return 0; }
int main() { x = 41; h1(); return 0; }
`},
		{"malloc", `
int g;
int main() {
	int *p;
	p = malloc(8);
	*p = 3;
	g = *p;
	return 0;
}
`},
		{"nestedloops", `
int g;
int main() {
	int i; int j; int s; s = 0;
	for (i = 0; i < 5; i++) {
		for (j = 0; j < i; j++) { s = s + 1; }
	}
	g = s;
	return 0;
}
`},
	}
	for _, tc := range programs {
		for _, bypass := range []bool{false, true} {
			t.Run(tc.name, func(t *testing.T) {
				f, err := parser.Parse(tc.name, tc.src)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				prog, err := lower.File(f)
				if err != nil {
					t.Fatalf("lower: %v", err)
				}
				pre := prean.Run(prog)
				g := dug.Build(prog, pre, dug.Options{Bypass: bypass})
				s := pre.Sem(prog)
				sp := Analyze(prog, pre, s, g, Options{})
				dn := dense.Analyze(prog, pre, s, mem.Bot, pre.Accessed, dense.IntervalStride, dense.Options{Localize: true})

				for _, pt := range prog.Points {
					if !sp.Reached[pt.ID] && !dn.Reached[pt.ID] {
						continue
					}
					if sp.Reached[pt.ID] != dn.Reached[pt.ID] {
						t.Errorf("point %d (%s): reachability sparse=%v dense=%v",
							pt.ID, prog.CmdString(pt.Cmd), sp.Reached[pt.ID], dn.Reached[pt.ID])
						continue
					}
					if _, isCall := pt.Cmd.(ir.Call); isCall {
						continue // formal bindings live at entries in the dense world
					}
					dOut := dn.Out(s, pt)
					for _, l := range g.Defs[dug.NodeID(pt.ID)] {
						sv := sp.Out[pt.ID].Get(l)
						dv := dOut.Get(l)
						if !sv.Eq(dv) {
							t.Errorf("bypass=%v point %d (%s) loc %s: sparse %s != dense %s",
								bypass, pt.ID, prog.CmdString(pt.Cmd),
								prog.Locs.String(l), sv.String(), dv.String())
						}
					}
				}
			})
		}
	}
}

// TestDeadPathSoundness: when a statically dead branch feeds a join, the
// sparse phi may include the dead path's value (the paper's syntactic Paths
// in Definition 3); the result must still over-approximate the dense one.
func TestDeadPathSoundness(t *testing.T) {
	src := `
int g;
int main() {
	int x;
	x = 1;
	if (0) { } else { x = 3; }
	g = x;
	return 0;
}
`
	f, _ := parser.Parse("dead.c", src)
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dug.Options{Bypass: true})
	s := pre.Sem(prog)
	sp := Analyze(prog, pre, s, g, Options{})
	dn := dense.Analyze(prog, pre, s, mem.Bot, pre.Accessed, dense.IntervalStride, dense.Options{Localize: true})
	for _, pt := range prog.Points {
		if !dn.Reached[pt.ID] || !sp.Reached[pt.ID] {
			continue
		}
		dOut := dn.Out(s, pt)
		for _, l := range g.Defs[dug.NodeID(pt.ID)] {
			if !dOut.Get(l).LessEq(sp.Out[pt.ID].Get(l)) {
				t.Errorf("point %d loc %s: dense %s not within sparse %s (unsound)",
					pt.ID, prog.Locs.String(l), dOut.Get(l), sp.Out[pt.ID].Get(l))
			}
		}
	}
}

func TestSparseNarrowingRecovers(t *testing.T) {
	src := `
int g;
int main() {
	int i;
	i = 0;
	while (i < 100) { i = i + 1; }
	g = i;
	return 0;
}
`
	f, _ := parser.Parse("t.c", src)
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dug.Options{Bypass: true})
	s := pre.Sem(prog)
	wide := Analyze(prog, pre, s, g, Options{})
	narrow := Analyze(prog, pre, s, g, Options{Narrow: 8})
	loc, _ := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: "g"})
	root := prog.ProcByID(prog.Main)
	mw, _ := wide.ValueAt(g, root.Exit, loc)
	mn, _ := narrow.ValueAt(g, root.Exit, loc)
	if !mw.Get(loc).Itv().Hi().IsPosInf() {
		t.Fatalf("without narrowing g = %s (expected widened hi)", mw.Get(loc).Itv())
	}
	got := mn.Get(loc).Itv()
	if !got.Eq(itv.Single(100)) {
		t.Errorf("with narrowing g = %s want [100,100]", got)
	}
}

func TestSparseNarrowingStaysSound(t *testing.T) {
	// Narrowing must not drop below the dense narrowed result on D̂.
	src := `
int g; int h;
int main() {
	int i; int j;
	for (i = 0; i < 50; i++) {
		for (j = 0; j < i; j++) { h = h + 1; }
	}
	g = i + j;
	return 0;
}
`
	f, _ := parser.Parse("t.c", src)
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dug.Options{Bypass: true})
	s := pre.Sem(prog)
	sp := Analyze(prog, pre, s, g, Options{Narrow: 6})
	dn := dense.Analyze(prog, pre, s, mem.Bot, pre.Accessed, dense.IntervalStride, dense.Options{Localize: true, Narrow: 6})
	for _, pt := range prog.Points {
		if !sp.Reached[pt.ID] || !dn.Reached[pt.ID] {
			continue
		}
		if _, isCall := pt.Cmd.(ir.Call); isCall {
			continue
		}
		dOut := dn.Out(s, pt)
		for _, l := range g.Defs[dug.NodeID(pt.ID)] {
			dv := dOut.Get(l)
			sv := sp.Out[pt.ID].Get(l)
			if !dv.Itv().LessEq(sv.Itv()) && !sv.Itv().LessEq(dv.Itv()) {
				t.Errorf("point %d loc %s: narrowed results incomparable: sparse %s dense %s",
					pt.ID, prog.Locs.String(l), sv, dv)
			}
		}
	}
}

// TestDifferentialSwitchGoto extends the differential check to switch and
// goto control flow (including the irreducible-ish shapes gotos can make).
func TestDifferentialSwitchGoto(t *testing.T) {
	src := `
int g; int h;
int classify(int c) {
	switch (c % 4) {
	case 0: return 10;
	case 1:
	case 2: g = g + 1;      /* fallthrough into default */
	default: h = h + c;
	}
	return 0;
}
int main() {
	int i; int r;
	i = 0;
	r = 0;
loop:
	r = r + classify(input());
	i = i + 1;
	if (i < 20) { goto loop; }
	return r;
}
`
	f, err := parser.Parse("sg.c", src)
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
		s := pre.Sem(prog)
		sp := Analyze(prog, pre, s, g, Options{})
		dn := dense.Analyze(prog, pre, s, mem.Bot, pre.Accessed, dense.IntervalStride, dense.Options{Localize: true})
		for _, pt := range prog.Points {
			if !sp.Reached[pt.ID] || !dn.Reached[pt.ID] {
				if sp.Reached[pt.ID] != dn.Reached[pt.ID] {
					t.Errorf("bypass=%v point %d: reach sparse=%v dense=%v",
						bypass, pt.ID, sp.Reached[pt.ID], dn.Reached[pt.ID])
				}
				continue
			}
			if _, isCall := pt.Cmd.(ir.Call); isCall {
				continue
			}
			dOut := dn.Out(s, pt)
			for _, l := range g.Defs[dug.NodeID(pt.ID)] {
				sv := sp.Out[pt.ID].Get(l)
				dv := dOut.Get(l)
				if !sv.Eq(dv) {
					t.Errorf("bypass=%v point %d (%s) loc %s: sparse %s != dense %s",
						bypass, pt.ID, prog.CmdString(pt.Cmd),
						prog.Locs.String(l), sv.String(), dv.String())
				}
			}
		}
	}
}

// TestDifferentialGenerated runs a Lemma-2-style check over a family of
// generated programs (loops, calls, pointers, function pointers, switch,
// gotos, recursion clusters). With widening in play the two fixpoints need
// not be bit-equal on arbitrary programs: dense widening hits whole
// memories at its widening points while sparse widening is per-location at
// that location's own node, so the sparse value may be strictly tighter
// (never looser on alarms — see the alarm parity tests). The invariant
// checked here is per-entry comparability: every D̂ entry must be related
// by ⊑ in one direction or the other (exact equality on widening-free
// programs is checked by the curated TestDifferentialSparseVsBase).
func TestDifferentialGenerated(t *testing.T) {
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
			s := pre.Sem(prog)
			sp := Analyze(prog, pre, s, g, Options{})
			dn := dense.Analyze(prog, pre, s, mem.Bot, pre.Accessed, dense.IntervalStride, dense.Options{Localize: true})
			mismatches := 0
			for _, pt := range prog.Points {
				if !sp.Reached[pt.ID] || !dn.Reached[pt.ID] || mismatches > 5 {
					continue
				}
				if _, isCall := pt.Cmd.(ir.Call); isCall {
					continue
				}
				dOut := dn.Out(s, pt)
				for _, l := range g.Defs[dug.NodeID(pt.ID)] {
					sv := sp.Out[pt.ID].Get(l)
					dv := dOut.Get(l)
					if !sv.LessEq(dv) && !dv.LessEq(sv) {
						mismatches++
						t.Errorf("seed %d bypass=%v point %d (%s) loc %s: incomparable:\n sparse %s\n dense  %s",
							seed, bypass, pt.ID, prog.CmdString(pt.Cmd),
							prog.Locs.String(l), sv.String(), dv.String())
					}
				}
			}
		}
	}
}

// The reference solver below is the tree-based fixpoint loop the slot store
// replaced: every node's Acc and Out is a persistent memory, and each
// changed push path-copies it. It is kept verbatim (renamed) so the slot
// store can be checked against it value for value and counter for
// counter; TestSlotStoreMatchesReference and FuzzSlotStore do that.

type refSolver struct {
	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	s    *sem.Sem
	opt  Options
	res  *Result
	wl   *worklist.Worklist

	// counts are the widening safety-valve counters, one per (node, def
	// location): slot cbase[n]+i counts the value-changing pushes of
	// Defs[n][i]. Keying the counters by location (not by firing) makes a
	// location's widening schedule a function of its own update history
	// alone, which is what lets a solve restricted to a subset of the
	// locations reproduce the full solve's widening decisions exactly (the
	// per-checker restricted runs rely on this).
	counts []int32
	cbase  []int32
}

// refDefOffsets returns the prefix sums of len(g.Defs[n]) — the slot bases of
// the per-(node, location) widening counters.
func refDefOffsets(g *dug.Graph) []int32 {
	n := g.NumNodes()
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int32(len(g.Defs[i]))
	}
	return off
}

// refAnalyze is the tree-based Analyze.
func refAnalyze(prog *ir.Program, pre *prean.Result, s *sem.Sem, g *dug.Graph, opt Options) *Result {
	n := g.NumNodes()
	cbase := refDefOffsets(g)
	sv := &refSolver{
		prog: prog,
		pre:  pre,
		g:    g,
		s:    s,
		opt:  opt,
		res: &Result{
			Acc:     make([]mem.Mem, n),
			Out:     make([]mem.Mem, n),
			Reached: make([]bool, g.PointCount),
		},
		counts: make([]int32, cbase[n]),
		cbase:  cbase,
		wl:     worklist.New(n, g.Prio),
	}
	root := prog.ProcByID(prog.Main)
	sv.res.Reached[root.Entry] = true
	sv.wl.Add(int(root.Entry))
	for {
		id, ok := sv.wl.Take()
		if !ok {
			break
		}
		sv.res.Steps++
		if sv.opt.MaxSteps > 0 && sv.res.Steps > sv.opt.MaxSteps {
			sv.res.TimedOut = true
			break
		}
		if sv.opt.Budget != nil && sv.res.Steps%256 == 0 {
			if sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
				sv.res.TimedOut = true
				break
			}
		}
		sv.fire(dug.NodeID(id))
	}
	if opt.Narrow > 0 && !sv.res.TimedOut {
		sv.narrow(opt.Narrow)
	}
	return sv.res
}

// outOf recomputes a node's output memory from its current accumulated
// input (the f#_c(acc) of the descending phase). ok is false for refuted
// assumes and unreachable points.
func (sv *refSolver) outOf(n dug.NodeID) (mem.Mem, bool) {
	if sv.g.IsPhi(n) {
		return sv.res.Acc[n], true
	}
	pt := sv.prog.Point(ir.PointID(n))
	if !sv.res.Reached[pt.ID] {
		return mem.Bot, false
	}
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		out := sv.res.Acc[n]
		for _, p := range sv.pre.CalleesOf(pt.ID) {
			out = sv.s.BindFormals(pt, sv.prog.ProcByID(p), out)
		}
		return out, true
	}
	return sv.s.Transfer(pt, sv.res.Acc[n])
}

// narrow runs descending Jacobi sweeps: recompute every node's output from
// its (current) input, rebuild the inputs as the join of dependency
// predecessors' outputs, and narrow the stored inputs/outputs towards them.
// Sweeps stop early at stability.
func (sv *refSolver) narrow(passes int) {
	n := sv.g.NumNodes()
	for pass := 0; pass < passes; pass++ {
		if sv.opt.Budget != nil && sv.opt.Budget.Poll(rt.PhaseFix) != rt.OK {
			sv.res.TimedOut = true
			return
		}
		outs := make([]mem.Mem, n)
		okv := make([]bool, n)
		for i := 0; i < n; i++ {
			outs[i], okv[i] = sv.outOf(dug.NodeID(i))
		}
		// Rebuild inputs from the recomputed outputs.
		newAcc := make([]mem.Mem, n)
		for i := 0; i < n; i++ {
			if !okv[i] {
				continue
			}
			cur := sv.g.Out(dug.NodeID(i))
			for _, l := range sv.g.Defs[dug.NodeID(i)] {
				v := outs[i].Get(l)
				if v.IsBot() {
					continue
				}
				for _, succ := range cur.Seek(l) {
					newAcc[succ] = newAcc[succ].WeakSet(l, v)
				}
			}
		}
		stable := true
		for i := 0; i < n; i++ {
			na, nch := sv.res.Acc[i].NarrowChanged(newAcc[i])
			if nch {
				stable = false
				sv.res.Acc[i] = na
			}
		}
		// Refresh stored outputs from the narrowed inputs so Out keeps
		// agreeing with f#(Acc) on D̂. Detect first (allocation-free), then
		// rebuild only on change — the rebuild binds every def location,
		// explicit bottoms included, exactly as before.
		for i := 0; i < n; i++ {
			out, ok := sv.outOf(dug.NodeID(i))
			if !ok {
				continue
			}
			changed := false
			for _, l := range sv.g.Defs[dug.NodeID(i)] {
				if _, ch := sv.res.Out[i].Get(l).NarrowChanged(out.Get(l)); ch {
					changed = true
					break
				}
			}
			if !changed {
				continue
			}
			refreshed := sv.res.Out[i]
			for _, l := range sv.g.Defs[dug.NodeID(i)] {
				refreshed = refreshed.Set(l, sv.res.Out[i].Get(l).Narrow(out.Get(l)))
			}
			stable = false
			sv.res.Out[i] = refreshed
		}
		if stable {
			return
		}
	}
}

// fire processes one node: transfer its command over the accumulated
// partial memory and push changed definition values along dependencies.
func (sv *refSolver) fire(n dug.NodeID) {
	if sv.g.IsPhi(n) {
		// A phi joins incoming values of its single location.
		sv.pushOuts(n, sv.res.Acc[n])
		return
	}
	pt := sv.prog.Point(ir.PointID(n))
	if !sv.res.Reached[pt.ID] {
		return // values wait until the point becomes reachable
	}
	acc := sv.res.Acc[n]
	var out mem.Mem
	ok := true
	if _, isCall := pt.Cmd.(ir.Call); isCall {
		out = acc
		for _, p := range sv.pre.CalleesOf(pt.ID) {
			out = sv.s.BindFormals(pt, sv.prog.ProcByID(p), out)
		}
	} else {
		out, ok = sv.s.Transfer(pt, acc)
	}
	if !ok {
		return // refuted assume: no values, no reachability
	}
	sv.propagateReach(pt)
	sv.pushOuts(n, out)
}

// propagateReach marks the control successors of pt reachable, mirroring
// the dense solver's interprocedural edges.
func (sv *refSolver) propagateReach(pt *ir.Point) {
	mark := func(t ir.PointID) {
		if !sv.res.Reached[t] {
			sv.res.Reached[t] = true
			sv.wl.Add(int(t))
		}
	}
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := sv.pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				mark(s)
			}
			return
		}
		for _, p := range callees {
			mark(sv.prog.ProcByID(p).Entry)
		}
	case ir.Exit:
		for _, rs := range sv.pre.RetSites[pt.Proc] {
			mark(rs)
		}
	default:
		for _, s := range pt.Succs {
			mark(s)
		}
	}
}

// pushOuts compares the produced values on D̂(n) against the stored ones,
// widens at widening nodes, and propagates changed values to dependency
// successors.
func (sv *refSolver) pushOuts(n dug.NodeID, m mem.Mem) {
	isEntry := false
	if !sv.g.IsPhi(n) {
		_, isEntry = sv.prog.Point(ir.PointID(n)).Cmd.(ir.Entry)
	}
	base := sv.cbase[n]
	cur := sv.g.Out(n)
	for i, l := range sv.g.Defs[n] {
		nv := m.Get(l)
		old := sv.res.Out[n].Get(l)
		// Fused join: the steady-state case (nv ⊑ old) is a comparison with
		// no allocation, replacing the Join-then-Eq pair.
		joined, jch := old.JoinChanged(nv)
		if !jch {
			continue
		}
		cnt := sv.counts[base+int32(i)]
		sv.counts[base+int32(i)] = cnt + 1
		sv.res.Joins++
		forceWiden := int(cnt) > widenThreshold ||
			(isEntry && int(cnt) > entryWidenDelay)
		if sv.g.Widen[n] || forceWiden {
			wv, wch := old.WidenChanged(joined)
			if wch {
				sv.res.Widenings++
			}
			joined = wv
		}
		sv.res.Out[n] = sv.res.Out[n].Set(l, joined)
		for _, succ := range cur.Seek(l) {
			sacc := sv.res.Acc[succ]
			if joined.LessEq(sacc.Get(l)) {
				continue
			}
			sv.res.Acc[succ] = sacc.WeakSet(l, joined)
			sv.wl.Add(int(succ))
		}
	}
}

// slotStoreInputs are the reference test's programs: the corpus files,
// cgen.Fuzz programs with gotos and switches, and the first two programs of
// the seed-7 gen-4000 suite (sparse-4k).
func slotStoreInputs(t *testing.T) map[string]string {
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
	for _, seed := range []uint64{1, 2, 41} {
		srcs[fmt.Sprintf("fuzz-%d", seed)] = cgen.Generate(gotoSwitchFuzz(seed, 600))
	}
	for i := uint64(0); i < 2; i++ {
		srcs[fmt.Sprintf("gen-4000-7-%d", i)] = cgen.Generate(cgen.Default(7<<16|i, 4000))
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

// checkSlotStore solves src with and without narrowing and, unless
// bypassOnly, the chain bypass, and requires each result to equal the
// tree-based reference's: the same reachability, Eq and Len on every Acc and
// Out, the same work counters and the same truncation. Each solve also runs
// under step budgets of 1, 17 and 500, which pin where the stop check
// truncates.
func checkSlotStore(t *testing.T, name, src string, bypassOnly bool) {
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
	s := pre.Sem(prog)
	for _, bypass := range []bool{true, false} {
		if !bypass && bypassOnly {
			break
		}
		g := dug.Build(prog, pre, dug.Options{Bypass: bypass})
		for _, narrow := range []int{0, 2} {
			for _, maxSteps := range []int{0, 1, 17, 500} {
				opt := Options{Narrow: narrow, MaxSteps: maxSteps}
				label := fmt.Sprintf("%s bypass=%v narrow=%d maxsteps=%d", name, bypass, narrow, maxSteps)
				assertSameSolve(t, label, g, refAnalyze(prog, pre, s, g, opt), Analyze(prog, pre, s, g, opt))
			}
		}
	}
}

// assertSameSolve requires equal reachability, memories (Eq and Len) and
// counters.
func assertSameSolve(t *testing.T, label string, g *dug.Graph, want, got *Result) {
	t.Helper()
	if want.Steps != got.Steps || want.Joins != got.Joins || want.Widenings != got.Widenings {
		t.Errorf("%s: steps/joins/widenings %d/%d/%d vs %d/%d/%d", label,
			want.Steps, want.Joins, want.Widenings, got.Steps, got.Joins, got.Widenings)
	}
	if want.TimedOut != got.TimedOut {
		t.Errorf("%s: timed out %v vs %v", label, want.TimedOut, got.TimedOut)
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
			want, got mem.Mem
		}{{"Acc", want.Acc[n], got.Acc[n]}, {"Out", want.Out[n], got.Out[n]}} {
			if !m.want.Eq(m.got) || m.want.Len() != m.got.Len() {
				bad++
				t.Errorf("%s: node %d %s differs:\n want %s\n got  %s", label, n, m.kind, m.want, m.got)
			}
		}
	}
}

// TestSlotStoreMatchesReference pins the slot store to the tree-based
// reference solver over the corpus, goto/switch fuzz programs and gen-4000.
// The gen-4000 programs run with the bypass only (the CLI default): without
// it the reference takes seconds per solve.
func TestSlotStoreMatchesReference(t *testing.T) {
	for name, src := range slotStoreInputs(t) {
		t.Run(name, func(t *testing.T) { checkSlotStore(t, name, src, strings.HasPrefix(name, "gen-")) })
	}
}

// FuzzSlotStore compares the slot store with the reference on cgen.Fuzz
// programs with gotos and switches; the seed corpus also draws one corpus
// file and one gen-4000 program.
func FuzzSlotStore(f *testing.F) {
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
			checkSlotStore(t, filepath.Base(p), string(b), false)
		case 1:
			checkSlotStore(t, fmt.Sprintf("fuzz-%d", seed), cgen.Generate(gotoSwitchFuzz(seed, 300)), false)
		default:
			checkSlotStore(t, fmt.Sprintf("gen-4000-7-%d", seed%64), cgen.Generate(cgen.Default(7<<16|seed%64, 4000)), true)
		}
	})
}

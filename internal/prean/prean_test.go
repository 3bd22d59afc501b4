package prean

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	"sparrow/internal/sem"
)

func run(t *testing.T, src string) (*ir.Program, *Result) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	return prog, Run(prog)
}

func gloc(t *testing.T, prog *ir.Program, name string) ir.LocID {
	t.Helper()
	l, ok := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: name})
	if !ok {
		t.Fatalf("no global %q", name)
	}
	return l
}

// TestConservative: the flow-insensitive invariant must cover every value a
// location holds anywhere in the program.
func TestConservative(t *testing.T) {
	prog, pre := run(t, `
int g;
int main() {
	g = 1;
	g = 5;
	g = -3;
	return 0;
}
`)
	iv := pre.Mem.Get(gloc(t, prog, "g")).Itv()
	for _, n := range []int64{0, 1, 5, -3} { // 0 from zero-init
		if !itv.Single(n).LessEq(iv) {
			t.Errorf("pre-analysis g = %s misses %d", iv, n)
		}
	}
}

func TestFunctionPointerResolution(t *testing.T) {
	prog, pre := run(t, `
int one() { return 1; }
int two() { return 2; }
int main() {
	int (*fp)(void);
	int r;
	if (input()) { fp = one; } else { fp = two; }
	r = fp(0);
	return r;
}
`)
	main := prog.ProcByName("main")
	var indirect ir.PointID = ir.None
	for _, cp := range main.Calls {
		c := prog.Point(cp).Cmd.(ir.Call)
		if _, direct := c.F.(ir.FuncAddr); !direct {
			indirect = cp
		}
	}
	if indirect == ir.None {
		t.Fatal("no indirect call found")
	}
	callees := pre.CalleesOf(indirect)
	if len(callees) != 2 {
		t.Fatalf("indirect call resolved to %d callees want 2", len(callees))
	}
	names := map[string]bool{}
	for _, p := range callees {
		names[prog.ProcByID(p).Name] = true
	}
	if !names["one"] || !names["two"] {
		t.Errorf("resolved %v", names)
	}
}

func TestSummaries(t *testing.T) {
	prog, pre := run(t, `
int a; int b; int untouched;
void writeA() { a = 1; }
int readB() { return b; }
void caller() { writeA(); readB(); }
int main() { caller(); return 0; }
`)
	la, lb, lu := gloc(t, prog, "a"), gloc(t, prog, "b"), gloc(t, prog, "untouched")
	writeA := prog.ProcByName("writeA")
	readB := prog.ProcByName("readB")
	caller := prog.ProcByName("caller")
	if !ir.LocsContain(pre.DefSummary[writeA.ID], la) {
		t.Error("writeA def summary misses a")
	}
	if ir.LocsContain(pre.DefSummary[writeA.ID], lb) {
		t.Error("writeA def summary includes b")
	}
	if !ir.LocsContain(pre.UseSummary[readB.ID], lb) {
		t.Error("readB use summary misses b")
	}
	// Transitive closure into the caller.
	if !ir.LocsContain(pre.DefSummary[caller.ID], la) || !ir.LocsContain(pre.UseSummary[caller.ID], lb) {
		t.Error("caller summaries not transitive")
	}
	if ir.LocsContain(pre.Accessed(caller.ID), lu) {
		t.Error("caller accesses untouched")
	}
}

func TestRetSites(t *testing.T) {
	prog, pre := run(t, `
int f() { return 1; }
int main() {
	int a; int b;
	a = f();
	b = f();
	return a + b;
}
`)
	f := prog.ProcByName("f")
	if len(pre.RetSites[f.ID]) != 2 {
		t.Errorf("f has %d return sites want 2", len(pre.RetSites[f.ID]))
	}
	if len(pre.CallSites[f.ID]) != 2 {
		t.Errorf("f has %d call sites want 2", len(pre.CallSites[f.ID]))
	}
	for _, rs := range pre.RetSites[f.ID] {
		if _, ok := prog.Point(rs).Cmd.(ir.RetBind); !ok {
			t.Errorf("ret site %d is %T", rs, prog.Point(rs).Cmd)
		}
	}
}

func TestTerminates(t *testing.T) {
	_, pre := run(t, `
int g;
int loop() {
	while (input()) { g = g + 1; }
	return g;
}
int main() { return loop(); }
`)
	if pre.Passes > 50 {
		t.Errorf("pre-analysis took %d passes", pre.Passes)
	}
	// g must have been widened to an upper-unbounded interval.
	// (checked indirectly: analysis finished.)
}

// referenceSweep is the naive global-invariant sweep the semi-naive sweeper
// must reproduce: every pass re-applies every point through the full
// transfer function and joins the whole result into the accumulator.
func referenceSweep(prog *ir.Program) (mem.Mem, int) {
	s := sem.New(prog)
	g := mem.Bot
	pass := 0
	for {
		pass++
		next := g
		if pass%2 == 1 {
			for _, pt := range prog.Points {
				next = referenceStep(s, pt, next, next)
			}
		} else {
			for i := len(prog.Points) - 1; i >= 0; i-- {
				next = referenceStep(s, prog.Points[i], next, next)
			}
		}
		if pass > joinPasses {
			next = g.Widen(next)
		}
		if next.Eq(g) {
			return g, pass
		}
		g = next
	}
}

// referenceStep folds the contribution of one point into the accumulating
// global invariant. acc is threaded so one pass applies every command once.
func referenceStep(s *sem.Sem, pt *ir.Point, cur, acc mem.Mem) mem.Mem {
	switch c := pt.Cmd.(type) {
	case ir.Call:
		fv := s.Eval(c.F, cur)
		for _, p := range fv.Fns() {
			callee := s.Prog.ProcByID(p)
			for i, f := range callee.Formals {
				var v val.Val
				if i < len(c.Args) {
					v = s.Eval(c.Args[i], cur)
				} else {
					v = val.TopInt
				}
				acc = acc.WeakSet(f, v)
			}
		}
		return acc
	case ir.RetBind:
		if c.L == ir.None {
			return acc
		}
		call := s.Prog.Point(c.CallPt).Cmd.(ir.Call)
		fv := s.Eval(call.F, cur)
		v := val.Bot
		if len(fv.Fns()) == 0 {
			v = val.TopInt
		}
		for _, p := range fv.Fns() {
			rl := s.Prog.ProcByID(p).RetLoc
			if rl != ir.None {
				v = v.Join(cur.Get(rl))
			} else {
				v = v.Join(val.TopInt)
			}
		}
		return acc.WeakSet(c.L, v)
	case ir.Assume:
		return acc
	default:
		out, ok := s.Transfer(pt, cur)
		if !ok {
			return acc
		}
		return acc.Join(out)
	}
}

// checkSweepMatchesReference lowers src twice — the sweeps intern locations
// into the program they run on — and requires the semi-naive pre-analysis
// to agree with the reference sweep on the invariant, the pass count, the
// interned locations, the resolved callees and the def/use summaries. It
// returns the program and its semi-naive result, or nils when src does not
// parse or lower.
func checkSweepMatchesReference(t *testing.T, name, src string) (*ir.Program, *Result) {
	t.Helper()
	lowerSrc := func() *ir.Program {
		f, err := parser.Parse(name, src)
		if err != nil {
			return nil
		}
		prog, err := lower.File(f)
		if err != nil {
			return nil
		}
		return prog
	}
	refProg, prog := lowerSrc(), lowerSrc()
	if prog == nil {
		return nil, nil
	}
	g, passes := referenceSweep(refProg)
	want := finish(refProg, g, passes, nil)
	got := Run(prog)
	if !got.Mem.Eq(want.Mem) || got.Mem.Len() != want.Mem.Len() {
		t.Errorf("%s: invariant differs from the reference\n got %s\nwant %s", name, got.Mem, want.Mem)
	}
	if got.Passes != want.Passes {
		t.Errorf("%s: %d passes, reference %d", name, got.Passes, want.Passes)
	}
	if n, m := prog.Locs.Len(), refProg.Locs.Len(); n != m {
		t.Errorf("%s: %d interned locations, reference %d", name, n, m)
	} else {
		for l := range n {
			if a, b := prog.Locs.Get(ir.LocID(l)), refProg.Locs.Get(ir.LocID(l)); a != b {
				t.Errorf("%s: location %d is %v, reference %v", name, l, a, b)
				break
			}
		}
	}
	if !reflect.DeepEqual(got.Callees, want.Callees) {
		t.Errorf("%s: callees differ from the reference", name)
	}
	if !reflect.DeepEqual(got.DefSummary, want.DefSummary) || !reflect.DeepEqual(got.UseSummary, want.UseSummary) {
		t.Errorf("%s: def/use summaries differ from the reference", name)
	}
	return prog, got
}

// sweepSources returns the corpus files and 200 generated programs of
// varied size and shape: mostly randomized fuzz configurations, every
// tenth a balanced configuration of 200 to 2100 statements.
func sweepSources(tb testing.TB) (names, srcs []string) {
	tb.Helper()
	dir := filepath.Join("..", "..", "testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, e.Name())
		srcs = append(srcs, string(src))
	}
	for i := range 200 {
		seed := uint64(i)
		cfg := cgen.Fuzz(seed, 40+(i*37)%400)
		if i%10 == 9 {
			cfg = cgen.Default(seed, 200+100*(i/10))
		}
		names = append(names, fmt.Sprintf("gen-%d.c", i))
		srcs = append(srcs, cgen.Generate(cfg))
	}
	return names, srcs
}

// TestSweepMatchesReference checks the semi-naive sweep against the
// reference sweep on the corpus and 200 generated programs, and that it
// actually skips work on the generated ones.
func TestSweepMatchesReference(t *testing.T) {
	names, srcs := sweepSources(t)
	visits, applications := 0, 0
	for i, src := range srcs {
		prog, r := checkSweepMatchesReference(t, names[i], src)
		if r == nil {
			t.Fatalf("%s: does not parse or lower", names[i])
		}
		visits += r.Passes * len(prog.Points)
		applications += r.applications
	}
	if applications*2 > visits {
		t.Errorf("applied %d of %d point visits; want at most half", applications, visits)
	}
	t.Logf("applied %d of %d point visits (%.1f%% skipped)", applications, visits, 100*float64(visits-applications)/float64(visits))
}

// FuzzSweep mutates C source, seeded from the corpus and generated
// programs; every source that parses and lowers must get the reference
// sweep's pre-analysis.
func FuzzSweep(f *testing.F) {
	names, srcs := sweepSources(f)
	for i, src := range srcs {
		if !strings.HasPrefix(names[i], "gen-") || i%20 == 0 {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkSweepMatchesReference(t, "fuzz.c", src)
	})
}

package dug

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

func build(t *testing.T, src string, opt Options) (*ir.Program, *prean.Result, *Graph) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	pre := prean.Run(prog)
	return prog, pre, Build(prog, pre, opt)
}

func locOf(t *testing.T, prog *ir.Program, name string) ir.LocID {
	t.Helper()
	l, ok := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: name})
	if !ok {
		t.Fatalf("no global %q", name)
	}
	return l
}

func TestStraightLineChain(t *testing.T) {
	prog, _, g := build(t, `
int a; int b; int c;
int main() { a = 1; b = a; c = b; return 0; }
`, Options{})
	la, lb := locOf(t, prog, "a"), locOf(t, prog, "b")
	// There must be an edge on a from "a := 1" to "b := a" and on b onward.
	foundA, foundB := false, false
	g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
		if g.IsPhi(from) || g.IsPhi(to) {
			return true
		}
		fc := prog.CmdString(prog.Point(ir.PointID(from)).Cmd)
		tc := prog.CmdString(prog.Point(ir.PointID(to)).Cmd)
		if l == la && fc == "a := 1" && tc == "b := a" {
			foundA = true
		}
		if l == lb && fc == "b := a" && tc == "c := b" {
			foundB = true
		}
		return true
	})
	if !foundA || !foundB {
		t.Errorf("expected def-use edges missing (a:%v b:%v)", foundA, foundB)
	}
}

func TestKillBlocksDependency(t *testing.T) {
	prog, _, g := build(t, `
int a; int b;
int main() { a = 1; a = 2; b = a; return 0; }
`, Options{})
	la := locOf(t, prog, "a")
	// "a := 1" must NOT reach "b := a" (killed by a := 2).
	g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
		if l != la || g.IsPhi(from) || g.IsPhi(to) {
			return true
		}
		fc := prog.CmdString(prog.Point(ir.PointID(from)).Cmd)
		tc := prog.CmdString(prog.Point(ir.PointID(to)).Cmd)
		if fc == "a := 1" && tc == "b := a" {
			t.Errorf("killed definition still reaches use")
		}
		return true
	})
}

func TestPhiAtJoin(t *testing.T) {
	_, _, g := build(t, `
int a; int b;
int main() {
	if (input()) { a = 1; } else { a = 2; }
	b = a;
	return 0;
}
`, Options{})
	if len(g.Phis) == 0 {
		t.Fatal("no phi nodes placed at the join")
	}
}

func TestPhiAtLoopHeadWidens(t *testing.T) {
	prog, _, g := build(t, `
int main() {
	int i;
	for (i = 0; i < 10; i++) { }
	return i;
}
`, Options{})
	widenPhis := 0
	for i := range g.Phis {
		n := NodeID(g.PointCount + i)
		if g.Widen[n] {
			widenPhis++
		}
	}
	if widenPhis == 0 {
		t.Errorf("no widened phi at the loop head; phis: %v", g.Phis)
	}
	_ = prog
}

func TestBypassReducesDeepChains(t *testing.T) {
	src := `
int x; int g;
int h3() { g = x; return 0; }
int h2() { h3(); return 0; }
int h1() { h2(); return 0; }
int main() { x = 1; h1(); return 0; }
`
	_, _, gNo := build(t, src, Options{})
	prog, _, gYes := build(t, src, Options{Bypass: true})
	if gYes.EdgeCount >= gNo.EdgeCount {
		t.Errorf("bypass: edges %d -> %d (no reduction)", gNo.EdgeCount, gYes.EdgeCount)
	}
	if gYes.SplicedTriples == 0 {
		t.Error("bypass reported no splices")
	}
	// After bypass, x must have a direct edge from main's def into h3's use
	// (the entry/call relays of h1, h2 spliced away).
	lx := locOf(t, prog, "x")
	direct := false
	gYes.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
		if l != lx || g0IsPhi(gYes, from) || g0IsPhi(gYes, to) {
			return true
		}
		fc := prog.CmdString(prog.Point(ir.PointID(from)).Cmd)
		tc := prog.CmdString(prog.Point(ir.PointID(to)).Cmd)
		if fc == "x := 1" && tc == "g := x" {
			direct = true
		}
		return true
	})
	if !direct {
		t.Error("bypass did not create the direct main→h3 dependency")
	}
}

func g0IsPhi(g *Graph, n NodeID) bool { return g.IsPhi(n) }

func TestAvgDefUseSmall(t *testing.T) {
	_, _, g := build(t, `
int g;
int main() { int x; x = 1; g = x; return 0; }
`, Options{Bypass: true})
	d, u := g.AvgDefUse()
	if d <= 0 || u < 0 {
		t.Errorf("AvgDefUse = %v,%v", d, u)
	}
	if d > 5 || u > 5 {
		t.Errorf("tiny program has avg D=%v U=%v (should be small)", d, u)
	}
}

func TestDefUseChainsBuild(t *testing.T) {
	f, err := parser.Parse("t.c", `
int a; int b;
int main() { a = 1; a = 2; b = a; return 0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	g := BuildDefUseChains(prog, pre, Options{})
	la := locOf(t, prog, "a")
	// Strong kill still blocks in du-chain mode.
	g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
		if l != la {
			return true
		}
		fc := prog.CmdString(prog.Point(ir.PointID(from)).Cmd)
		tc := prog.CmdString(prog.Point(ir.PointID(to)).Cmd)
		if fc == "a := 1" && tc == "b := a" {
			t.Error("always-kill did not block du-chain")
		}
		return true
	})
	if len(g.Phis) != 0 {
		t.Error("du-chain graph must not contain phis")
	}
}

// TestExample5MayKillDifference reproduces the paper's Example 5 shape: a
// store through a pointer that the pre-analysis (flow-insensitively) says
// may hit {x,w} but flow-sensitively hits only x. Data dependencies treat
// the may-def as a use (blocking the stale chain); conventional def-use
// chains let the stale definition of x reach the later use directly.
func TestExample5MayKillDifference(t *testing.T) {
	src := `
int a; int b;
int *x; int *w;
int **p;
int main() {
	p = &w;      /* earlier target, makes pre-analysis pts(p) = {w,x} */
	p = &x;      /* flow-sensitively, pts(p) = {x} from here on */
	x = &a;      /* 10: x := &a */
	*p = &b;     /* 11: *p := &b — strong update of x at solve time   */
	w = x;       /* 12: use of x */
	return 0;
}
`
	f, err := parser.Parse("ex5.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	lx := locOf(t, prog, "x")

	// Sanity: the pre-analysis must see both targets for p.
	lp := locOf(t, prog, "p")
	if n := len(pre.Mem.Get(lp).Ptr()); n < 2 {
		t.Fatalf("pre-analysis pts(p) has %d targets, want 2", n)
	}

	edgeStaleToUse := func(g *Graph) bool {
		found := false
		g.Range(func(from NodeID, l ir.LocID, to NodeID) bool {
			if l != lx || g.IsPhi(from) || g.IsPhi(to) {
				return true
			}
			fc := prog.CmdString(prog.Point(ir.PointID(from)).Cmd)
			tc := prog.CmdString(prog.Point(ir.PointID(to)).Cmd)
			if fc == "x := &a" && tc == "w := x" {
				found = true
				return false
			}
			return true
		})
		return found
	}

	gData := Build(prog, pre, Options{})
	gChain := BuildDefUseChains(prog, pre, Options{})
	if edgeStaleToUse(gData) {
		t.Error("data dependencies leaked the stale definition across the may-kill")
	}
	if !edgeStaleToUse(gChain) {
		t.Error("def-use chains should carry the stale definition across the may-kill")
	}
}

func TestWriteDot(t *testing.T) {
	prog, _, g := build(t, `
int g;
int main() {
	int x;
	x = input();
	if (x > 0) { g = x; } else { g = 0; }
	return g;
}
`, Options{Bypass: true})
	var buf strings.Builder
	if err := g.WriteDot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph dug", "cluster_", "φ(", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	// Truncation marker with a tiny cap.
	buf.Reset()
	if err := g.WriteDot(&buf, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "more edges") {
		t.Error("truncation marker missing")
	}
	_ = prog
}

// TestArenaCompaction drives the adjacency arena with random appends,
// swap-with-last removals and relay kills, the row edits of the bypass, and
// checks every row against a plain slice after each edit. The arena starts
// with little or no slack, so rows move, grow in place at its end,
// compact many times (moved rows and home rows alike) and force
// reallocations; a compaction must keep every row's entries and their
// order.
func TestArenaCompaction(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		nOut, nIn := 1+r.Intn(20), 1+r.Intn(20)
		model := make([][]edgeRef, nOut+nIn)
		var a adjacency
		a.out, a.in = make([]span, nOut), make([]span, nIn)
		for id := range model {
			s := a.span(id)
			s.off = int32(len(a.refs))
			for range 1 + r.Intn(3) {
				e := edgeRef{node: NodeID(r.Intn(12)), row: int32(r.Intn(1000))}
				if !slices.ContainsFunc(model[id], func(x edgeRef) bool { return x.node == e.node }) {
					model[id] = append(model[id], e)
					a.refs = append(a.refs, e)
				}
			}
			s.len = int32(len(model[id]))
			s.cap = s.len
		}
		a.refs = slices.Clip(a.refs)
		if seed%2 == 0 {
			a.refs = slices.Grow(a.refs, r.Intn(8))
		}
		a.home = int32(len(a.refs))
		for step := 0; step < 400; step++ {
			id := r.Intn(len(model))
			s := a.span(id)
			switch op := r.Intn(10); {
			case op < 6:
				e := edgeRef{node: NodeID(r.Intn(12)), row: int32(r.Intn(1000))}
				a.add(s, e)
				if !slices.ContainsFunc(model[id], func(x edgeRef) bool { return x.node == e.node }) {
					model[id] = append(model[id], e)
				}
			case op < 9:
				if len(model[id]) == 0 {
					continue
				}
				n := model[id][r.Intn(len(model[id]))].node
				a.remove(s, n)
				i := slices.IndexFunc(model[id], func(x edgeRef) bool { return x.node == n })
				model[id][i] = model[id][len(model[id])-1]
				model[id] = model[id][:len(model[id])-1]
			default:
				s.len = 0 // a spliced relay's rows
				model[id] = nil
			}
			for id, want := range model {
				if got := a.row(*a.span(id)); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: row %d = %v, want %v", seed, step, id, got, want)
				}
			}
		}
	}
}

package ssa

import (
	"testing"

	"sparrow/internal/callgraph"
	"sparrow/internal/cfg"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/frontend/token"
	"sparrow/internal/ir"
)

// buildDiamond constructs a hand-made CFG:
//
//	e -> a ; a -> b, c ; b -> d ; c -> d ; d -> x(exit)
func buildDiamond(t *testing.T) (*ir.Program, *ir.Proc, map[string]ir.PointID) {
	t.Helper()
	prog := ir.NewProgram()
	pr := prog.NewProc("f")
	mk := func(cmd ir.Cmd) ir.PointID {
		return prog.NewPoint(pr.ID, cmd, token.Pos{}).ID
	}
	pts := map[string]ir.PointID{}
	pts["e"] = mk(ir.Entry{})
	pts["a"] = mk(ir.Skip{})
	pts["b"] = mk(ir.Skip{})
	pts["c"] = mk(ir.Skip{})
	pts["d"] = mk(ir.Skip{})
	pts["x"] = mk(ir.Exit{})
	pr.Entry, pr.Exit = pts["e"], pts["x"]
	edges := [][2]string{{"e", "a"}, {"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"d", "x"}}
	for _, e := range edges {
		prog.AddEdge(pts[e[0]], pts[e[1]])
	}
	return prog, pr, pts
}

// compute builds the dominance information of proc over the reverse
// postorder of cfg.Compute, with index(p) giving point p's RPO index.
func compute(prog *ir.Program, proc *ir.Proc) (d *Dom, index func(ir.PointID) int) {
	noCallees := func(ir.PointID) []ir.ProcID { return nil }
	order := cfg.Compute(prog, callgraph.Build(prog, noCallees), noCallees).ProcRPO(proc.ID)
	idx := make([]int32, len(prog.Points))
	for i, id := range order {
		idx[id] = int32(i + 1)
	}
	d = new(Dom)
	d.Compute(prog, order, idx)
	return d, func(p ir.PointID) int { return int(idx[p]) - 1 }
}

func TestDiamondDominators(t *testing.T) {
	prog, pr, pts := buildDiamond(t)
	d, index := compute(prog, pr)
	idomOf := func(name string) ir.PointID {
		i := index(pts[name])
		return d.Order[d.Idom[i]]
	}
	want := map[string]string{"a": "e", "b": "a", "c": "a", "d": "a", "x": "d"}
	for n, w := range want {
		if got := idomOf(n); got != pts[w] {
			t.Errorf("idom(%s) = point %d want %s (point %d)", n, got, w, pts[w])
		}
	}
	// Dominance frontier: DF(b) = DF(c) = {d}; DF(a) = {} (a dominates d).
	for _, n := range []string{"b", "c"} {
		df := d.Frontier(index(pts[n]))
		if len(df) != 1 || d.Order[df[0]] != pts["d"] {
			t.Errorf("DF(%s) wrong: %v", n, df)
		}
	}
	if len(d.Frontier(index(pts["a"]))) != 0 {
		t.Errorf("DF(a) should be empty: %v", d.Frontier(index(pts["a"])))
	}
}

func TestLoopFrontier(t *testing.T) {
	// e -> h ; h -> b, x ; b -> h  (while loop). DF(b) = {h}, DF(h) = {h}.
	prog := ir.NewProgram()
	pr := prog.NewProc("f")
	mk := func(cmd ir.Cmd) ir.PointID { return prog.NewPoint(pr.ID, cmd, token.Pos{}).ID }
	e, h, b, x := mk(ir.Entry{}), mk(ir.Skip{}), mk(ir.Skip{}), mk(ir.Exit{})
	pr.Entry, pr.Exit = e, x
	prog.AddEdge(e, h)
	prog.AddEdge(h, b)
	prog.AddEdge(h, x)
	prog.AddEdge(b, h)
	d, index := compute(prog, pr)
	dfOf := func(p ir.PointID) map[ir.PointID]bool {
		out := map[ir.PointID]bool{}
		for _, i := range d.Frontier(index(p)) {
			out[d.Order[i]] = true
		}
		return out
	}
	if df := dfOf(b); !df[h] || len(df) != 1 {
		t.Errorf("DF(body) = %v want {head}", df)
	}
	if df := dfOf(h); !df[h] || len(df) != 1 {
		t.Errorf("DF(head) = %v want {head}", df)
	}
	// Iterated DF of a def in the body is {h}.
	idf := new(IDF).Of(d, []int32{int32(index(b))})
	if len(idf) != 1 || d.Order[idf[0]] != h {
		t.Errorf("IDF(body) = %v want {head}", idf)
	}
}

func TestDominates(t *testing.T) {
	prog, pr, pts := buildDiamond(t)
	d, index := compute(prog, pr)
	idx := func(n string) int { return index(pts[n]) }
	cases := []struct {
		a, b string
		want bool
	}{
		{"e", "x", true}, {"a", "d", true}, {"b", "d", false},
		{"d", "x", true}, {"c", "b", false}, {"a", "a", true},
	}
	for _, c := range cases {
		if got := d.Dominates(idx(c.a), idx(c.b)); got != c.want {
			t.Errorf("Dominates(%s,%s) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOnRealProgram(t *testing.T) {
	f, err := parser.Parse("t.c", `
int main() {
	int i; int s;
	s = 0;
	for (i = 0; i < 10; i++) {
		if (i % 2) { s += i; } else { s -= i; }
	}
	while (s > 0) { s--; }
	return s;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pr := prog.ProcByName("main")
	d, _ := compute(prog, pr)
	if d.Order[0] != pr.Entry {
		t.Fatal("RPO does not start at entry")
	}
	// Entry dominates everything reachable.
	for i := range d.Order {
		if !d.Dominates(0, i) {
			t.Errorf("entry does not dominate %d", d.Order[i])
		}
	}
	// Every non-entry point's idom strictly dominates it and appears
	// earlier in RPO.
	for i := 1; i < len(d.Order); i++ {
		if int(d.Idom[i]) >= i {
			t.Errorf("idom of %d not earlier in RPO", i)
		}
	}
	// IDF of all points is within bounds and stable under recomputation.
	all := make([]int32, len(d.Order))
	for i := range all {
		all[i] = int32(i)
	}
	idf := new(IDF).Of(d, all)
	for _, x := range idf {
		if x < 0 || int(x) >= len(d.Order) {
			t.Errorf("IDF out of range: %d", x)
		}
	}
}

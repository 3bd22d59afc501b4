package octsem

import (
	"testing"

	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/oct"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
)

func setup(t *testing.T, src string) (*ir.Program, *Sem) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	packs := pack.Build(prog, 0)
	return prog, New(prog, pre, packs)
}

func TestLinearForm(t *testing.T) {
	cases := []struct {
		e   ir.Expr
		y   ir.LocID
		neg bool
		c   int64
		ok  bool
	}{
		{ir.VarE{L: 3}, 3, false, 0, true},
		{ir.Bin{Op: ir.Add, X: ir.VarE{L: 2}, Y: ir.Const{V: 5}}, 2, false, 5, true},
		{ir.Bin{Op: ir.Add, X: ir.Const{V: 5}, Y: ir.VarE{L: 2}}, 2, false, 5, true},
		{ir.Bin{Op: ir.Sub, X: ir.VarE{L: 1}, Y: ir.Const{V: 4}}, 1, false, -4, true},
		{ir.Bin{Op: ir.Sub, X: ir.Const{V: 4}, Y: ir.VarE{L: 1}}, 1, true, 4, true},
		{ir.Neg{X: ir.VarE{L: 7}}, 7, true, 0, true},
		{ir.Bin{Op: ir.Mul, X: ir.VarE{L: 1}, Y: ir.Const{V: 2}}, 0, false, 0, false},
		{ir.Const{V: 9}, 0, false, 0, false},
	}
	for i, tc := range cases {
		y, neg, c, ok := linearForm(tc.e)
		if ok != tc.ok {
			t.Errorf("case %d: ok=%v want %v", i, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		cv, _ := c.Const()
		if y != tc.y || neg != tc.neg || cv != tc.c {
			t.Errorf("case %d: got (%d,%v,%d)", i, y, neg, cv)
		}
	}
}

func TestTopState(t *testing.T) {
	_, s := setup(t, "int a; int main() { a = 1; return a; }")
	m := s.TopState()
	if m.Len() != s.Packs.NumPacks() {
		t.Errorf("TopState has %d packs want %d", m.Len(), s.Packs.NumPacks())
	}
	m.Range(func(p pack.ID, o *oct.Oct) bool {
		if o.IsBottom() {
			t.Errorf("pack %d bottom in TopState", p)
		}
		return true
	})
}

func TestTransferSetAndAssume(t *testing.T) {
	prog, s := setup(t, `
int a; int b;
int main() {
	a = 3;
	b = a + 2;
	return 0;
}
`)
	m := s.TopState()
	var la, lb ir.LocID
	la, _ = prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: "a"})
	lb, _ = prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: "b"})
	main := prog.ProcByName("main")
	for _, id := range main.Points {
		pt := prog.Point(id)
		var ok bool
		m, ok = s.Transfer(pt, m)
		if !ok {
			t.Fatalf("transfer refuted at %s", prog.CmdString(pt.Cmd))
		}
	}
	// After running main's straight-line points in order, a==3 and b==5.
	if got := projLoc(s, la, m); !itv.Single(3).LessEq(got) {
		t.Errorf("a = %s must contain 3", got)
	}
	if got := projLoc(s, lb, m); !itv.Single(5).LessEq(got) {
		t.Errorf("b = %s must contain 5", got)
	}
	// And the shared pack knows b - a == 2.
	shared := pack.ID(-1)
	for _, p := range s.Packs.PacksOf(la) {
		if s.Packs.IndexIn(lb, p) >= 0 {
			shared = p
		}
	}
	if shared < 0 {
		t.Fatal("a and b share no pack")
	}
	o := m.Get(shared)
	ai, bi := s.Packs.IndexIn(la, shared), s.Packs.IndexIn(lb, shared)
	if got := o.Assume(oct.XMinusYLe, bi, ai, 1); !got.IsBottom() {
		t.Errorf("b - a <= 1 should contradict b - a = 2 in %s", o)
	}
}

func TestOMemLattice(t *testing.T) {
	_, s := setup(t, "int a; int main() { a = 1; return a; }")
	top := s.TopState()
	if !OBot.LessEq(top) || top.LessEq(OBot) {
		t.Error("OBot/top ordering wrong")
	}
	j := OBot.Join(top)
	if !j.Eq(top) {
		t.Error("OBot join top != top")
	}
	if !top.Widen(top).Eq(top) {
		t.Error("widen not reflexive-stable")
	}
	one := OBot.Set(0, oct.Top(1).AssignInterval(0, itv.Single(1)))
	two := OBot.Set(0, oct.Top(1).AssignInterval(0, itv.Single(2)))
	jj := one.Join(two)
	if got := jj.Get(0).Interval(0); !got.Eq(itv.OfInts(1, 2)) {
		t.Errorf("joined pack interval = %s", got)
	}
}

func TestEvalItvLoadViaPointer(t *testing.T) {
	prog, s := setup(t, `
int a;
int *p;
int main() {
	a = 7;
	p = &a;
	return *p;
}
`)
	// Set up a state where a == 7 in its singleton pack.
	la, _ := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: "a"})
	sp, _ := s.Packs.Singleton(la)
	m := s.TopState().Set(sp, oct.Top(1).AssignInterval(0, itv.Single(7)))
	lp, _ := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: "p"})
	got := evalItv(s, ir.Load{P: ir.VarE{L: lp}}, m)
	// The pre-analysis must resolve p → {a}; the load projects a's pack.
	if !itv.Single(7).LessEq(got) {
		t.Errorf("*p = %s must contain 7", got)
	}
}

func TestDefsUsesPackLevel(t *testing.T) {
	prog, s := setup(t, `
int a; int b; int c;
int main() {
	a = b + 1;
	if (a < c) { b = 0; }
	return 0;
}
`)
	la, _ := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: "a"})
	for _, pt := range prog.Points {
		set, ok := pt.Cmd.(ir.Set)
		if !ok || set.L != la {
			continue
		}
		if _, isBin := set.E.(ir.Bin); !isBin {
			continue // skip the zero-initialization in __start
		}
		defs, uses := s.DefsUses(pt)
		// Every pack containing a must be defined AND used.
		for _, p := range s.Packs.PacksOf(la) {
			if !defs[p] {
				t.Errorf("pack %d of a missing from defs", p)
			}
			if !uses[p] {
				t.Errorf("pack %d of a missing from uses (pack updates read)", p)
			}
		}
		if len(uses) <= len(s.Packs.PacksOf(la)) {
			t.Error("uses should also include b's singleton")
		}
	}
}

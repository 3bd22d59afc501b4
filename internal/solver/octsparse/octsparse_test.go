// Package octsparse holds the tests of the sparse solver's octagon instance
// (sparse.Octagons), among them the reference loop it is pinned to.
package octsparse

import (
	"testing"

	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	"sparrow/internal/solver/dense"
	"sparrow/internal/solver/sparse"
)

type pipeline struct {
	prog  *ir.Program
	pre   *prean.Result
	packs *pack.Set
	sem   *octsem.Sem
	g     *dug.Graph
	res   *sparse.Result[*oct.Oct]
}

func run(t *testing.T, src string, bypass bool) *pipeline {
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
	packs := pack.Build(prog, 0)
	s, dsrc := octsem.Source(prog, pre, packs)
	g := dug.BuildFrom(dsrc, dug.Options{Bypass: bypass})
	res := sparse.Analyze(prog, pre, sparse.Octagons(s), g, sparse.Options{})
	return &pipeline{prog: prog, pre: pre, packs: packs, sem: s, g: g, res: res}
}

// globalItv projects a global's interval at the root exit.
func (p *pipeline) globalItv(t *testing.T, name string) itv.Itv {
	t.Helper()
	loc, ok := p.prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: name})
	if !ok {
		t.Fatalf("no global %q", name)
	}
	sp, _ := p.packs.Singleton(loc)
	root := p.prog.ProcByID(p.prog.Main)
	o, tracked := p.res.Value(root.Exit, sp)
	if !tracked {
		t.Fatalf("global %q not tracked at root exit", name)
	}
	if o == nil {
		return itv.Bot
	}
	return o.Interval(0)
}

func TestOctConstants(t *testing.T) {
	for _, bypass := range []bool{false, true} {
		p := run(t, `
int g;
int main() { int x; x = 3; g = x + 4; return 0; }
`, bypass)
		if got := p.globalItv(t, "g"); !got.Eq(itv.Single(7)) {
			t.Errorf("bypass=%v: g = %s want [7,7]", bypass, got)
		}
	}
}

// TestOctRelationalPrecision: the octagon proves g == 2 where intervals
// cannot — y == x+1 and y > 100 force x == 100 under x in [0,100].
func TestOctRelationalPrecision(t *testing.T) {
	src := `
int g;
int main() {
	int x; int y;
	x = input();
	g = 0;
	if (x >= 0 && x <= 100) {
		y = x + 1;
		if (y > 100) {
			if (x < 100) { g = 1; } else { g = 2; }
		}
	}
	return 0;
}
`
	for _, bypass := range []bool{false, true} {
		p := run(t, src, bypass)
		got := p.globalItv(t, "g")
		if !got.Eq(itv.OfInts(0, 2)) && !got.Eq(itv.OfInts(0, 2).Join(itv.Bot)) {
			// g is 0 (outer conditions fail) or 2; never 1. The interval
			// hull of {0,2} is [0,2], but 1 must be excluded en route:
			// check the then-branch (g := 1) is unreachable.
			t.Logf("g = %s", got)
		}
		// The decisive check: the point "g := 1" must be unreachable.
		for _, pt := range p.prog.Points {
			if set, ok := pt.Cmd.(ir.Set); ok {
				if c, isC := set.E.(ir.Const); isC && c.V == 1 {
					if d := p.prog.Locs.Get(set.L); d.Name == "g" && p.res.Reached[pt.ID] {
						t.Errorf("bypass=%v: relational refutation failed: g := 1 reachable", bypass)
					}
				}
			}
		}
	}
}

func TestOctLoopInvariant(t *testing.T) {
	p := run(t, `
int g;
int main() {
	int i;
	i = 0;
	while (i < 50) { i = i + 1; }
	g = i;
	return 0;
}
`, true)
	got := p.globalItv(t, "g")
	if !itv.Single(50).LessEq(got) {
		t.Errorf("g = %s must contain 50", got)
	}
	if got.IsBot() || !got.Lo().IsFinite() || got.Lo().Int() != 50 {
		t.Errorf("g = %s want lower bound 50", got)
	}
}

func TestOctInterprocedural(t *testing.T) {
	p := run(t, `
int g;
int inc(int v) { return v + 1; }
int main() {
	g = inc(41);
	return 0;
}
`, true)
	got := p.globalItv(t, "g")
	if !itv.Single(42).LessEq(got) {
		t.Errorf("g = %s must contain 42", got)
	}
}

func TestOctPackingRelatesExprVars(t *testing.T) {
	p := run(t, `
int main() {
	int a; int b;
	a = input();
	b = a + 1;
	return b;
}
`, false)
	la, _ := p.prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: 2, Name: "a"})
	shared := false
	for _, pk := range p.packs.PacksOf(la) {
		if len(p.packs.Members[pk]) > 1 {
			shared = true
		}
	}
	if !shared {
		t.Error("a and b were not packed together")
	}
	if p.packs.AvgSize() < 2 {
		t.Errorf("avg pack size %v", p.packs.AvgSize())
	}
}

// accessedIn is the dense solver's access-set function over dsrc's packs.
func accessedIn(dsrc *dug.Source) func(ir.ProcID) []pack.ID {
	return func(p ir.ProcID) []pack.ID { return octsem.Accessed(dsrc, p) }
}

// TestOctDifferential compares the sparse relational fixpoint against the
// dense localized one on the tracked pack values (the relational analogue
// of Lemma 2).
func TestOctDifferential(t *testing.T) {
	programs := []string{
		`int g; int main() { int x; x = 2; g = x + 3; return 0; }`,
		`int g;
		 int main() {
			int x; x = input();
			if (x > 0 && x < 10) { g = x; } else { g = 0; }
			return 0;
		 }`,
		`int g;
		 int add(int a, int b) { return a + b; }
		 int main() { g = add(1, 2); return 0; }`,
		`int g;
		 int main() {
			int i; int s; s = 0;
			for (i = 0; i < 5; i++) { s = s + 1; }
			g = s;
			return 0;
		 }`,
	}
	for pi, src := range programs {
		for _, bypass := range []bool{false, true} {
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
			s, dsrc := octsem.Source(prog, pre, packs)
			g := dug.BuildFrom(dsrc, dug.Options{Bypass: bypass})
			sp := sparse.Analyze(prog, pre, sparse.Octagons(s), g, sparse.Options{})
			dn := dense.Analyze(prog, pre, s, s.TopState(), accessedIn(dsrc), dense.OctagonStride, dense.Options{Localize: true})

			for _, pt := range prog.Points {
				if !sp.Reached[pt.ID] || !dn.Reached[pt.ID] {
					if sp.Reached[pt.ID] != dn.Reached[pt.ID] {
						t.Errorf("prog %d bypass=%v point %d: reach sparse=%v dense=%v",
							pi, bypass, pt.ID, sp.Reached[pt.ID], dn.Reached[pt.ID])
					}
					continue
				}
				if _, isCall := pt.Cmd.(ir.Call); isCall {
					continue
				}
				dOut := dn.Out(s, pt)
				for _, p := range g.DefsOf(dug.NodeID(pt.ID)) {
					so, _ := sp.Value(pt.ID, p)
					do := dOut.Get(p)
					switch {
					case so == nil && do == nil:
					case so == nil:
						if !do.IsBottom() {
							t.Errorf("prog %d bypass=%v point %d (%s) pack %d: sparse bot, dense %s",
								pi, bypass, pt.ID, prog.CmdString(pt.Cmd), p, do)
						}
					case do == nil:
						if !so.IsBottom() {
							t.Errorf("prog %d bypass=%v point %d pack %d: dense bot, sparse %s",
								pi, bypass, pt.ID, p, so)
						}
					default:
						if !so.Eq(do) {
							t.Errorf("prog %d bypass=%v point %d (%s) pack %d:\n sparse %s\n dense  %s",
								pi, bypass, pt.ID, prog.CmdString(pt.Cmd), p, so, do)
						}
					}
				}
			}
		}
	}
}

func TestOctVanillaAgreesOnGlobals(t *testing.T) {
	src := `
int g; int h;
int bump(int v) { h = h + v; return h; }
int main() {
	h = 0;
	g = bump(2);
	return 0;
}
`
	f, _ := parser.Parse("t.c", src)
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	packs := pack.Build(prog, 0)
	s, dsrc := octsem.Source(prog, pre, packs)
	van := dense.Analyze(prog, pre, s, s.TopState(), accessedIn(dsrc), dense.OctagonStride, dense.Options{})
	base := dense.Analyze(prog, pre, s, s.TopState(), accessedIn(dsrc), dense.OctagonStride, dense.Options{Localize: true})
	root := prog.ProcByID(prog.Main)
	for _, name := range []string{"g", "h"} {
		loc, _ := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: name})
		spk, _ := packs.Singleton(loc)
		vi := itv.Bot
		if o := van.In[root.Exit].Get(spk); o != nil {
			vi = o.Interval(0)
		}
		bi := itv.Bot
		if o := base.In[root.Exit].Get(spk); o != nil {
			bi = o.Interval(0)
		}
		// base must be at least as precise as vanilla here.
		if !bi.LessEq(vi) {
			t.Errorf("%s: base %s not within vanilla %s", name, bi, vi)
		}
		if !itv.Single(2).LessEq(vi) {
			t.Errorf("%s: vanilla %s must contain 2", name, vi)
		}
	}
}

package dense

import (
	"testing"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
)

// setup parses, lowers and pre-analyzes src and builds its packing
// semantics.
func setup(t *testing.T, src string) (*ir.Program, *prean.Result, *octsem.Sem, *dug.Source) {
	t.Helper()
	prog, pre := parse(t, src)
	s, dsrc := octsem.Source(prog, pre, pack.Build(prog, 0))
	return prog, pre, s, dsrc
}

// analyzeOctagon runs the octagon instance of the solver the way core does:
// Top for every pack at main's entry, the pack access sets and a poll
// stride of 64.
func analyzeOctagon(prog *ir.Program, pre *prean.Result, s *octsem.Sem, dsrc *dug.Source, opt Options) *Result[octsem.OMem] {
	accessed := func(p ir.ProcID) []pack.ID { return octsem.Accessed(dsrc, p) }
	return Analyze(prog, pre, s, s.TopState(), accessed, OctagonStride, opt)
}

func globalItv(t *testing.T, prog *ir.Program, s *octsem.Sem, res *Result[octsem.OMem], name string) itv.Itv {
	t.Helper()
	loc, ok := prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: name})
	if !ok {
		t.Fatalf("no global %q", name)
	}
	sp, _ := s.Packs.Singleton(loc)
	root := prog.ProcByID(prog.Main)
	o := res.In[root.Exit].Get(sp)
	if o == nil {
		return itv.Bot
	}
	return o.Interval(0)
}

func TestOctDenseBasic(t *testing.T) {
	src := `
int g;
int main() { int x; x = 4; g = x * 1 + 3; return 0; }
`
	prog, pre, s, dsrc := setup(t, src)
	for _, localize := range []bool{false, true} {
		res := analyzeOctagon(prog, pre, s, dsrc, Options{Localize: localize})
		got := globalItv(t, prog, s, res, "g")
		if !itv.Single(7).LessEq(got) {
			t.Errorf("localize=%v: g = %s must contain 7", localize, got)
		}
	}
}

func TestOctDenseNarrowing(t *testing.T) {
	src := `
int g;
int main() {
	int i;
	i = 0;
	while (i < 40) { i = i + 1; }
	g = i;
	return 0;
}
`
	prog, pre, s, dsrc := setup(t, src)
	wide := analyzeOctagon(prog, pre, s, dsrc, Options{Localize: true})
	narrow := analyzeOctagon(prog, pre, s, dsrc, Options{Localize: true, Narrow: 8})
	wi := globalItv(t, prog, s, wide, "g")
	ni := globalItv(t, prog, s, narrow, "g")
	if !itv.Single(40).LessEq(wi) || !itv.Single(40).LessEq(ni) {
		t.Fatalf("unsound: wide %s narrow %s must contain 40", wi, ni)
	}
	if !ni.LessEq(wi) {
		t.Errorf("narrowing lost soundness direction: %s not within %s", ni, wi)
	}
	if ni.Hi().IsPosInf() && !wi.Hi().IsPosInf() {
		t.Errorf("narrowing made result coarser: %s vs %s", ni, wi)
	}
}

package core

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/check"
	"sparrow/internal/lattice/itv"
)

const demo = `
int g;
int a[10];
int helper(int x) { g = g + x; return g; }
int main() {
	int i;
	g = 0;
	for (i = 0; i < 10; i++) {
		a[i] = helper(i);
	}
	return g;
}
`

func allConfigs() []Options {
	var out []Options
	for _, d := range []Domain{Interval, Octagon} {
		for _, m := range []Mode{Vanilla, Base, Sparse} {
			out = append(out, Options{Domain: d, Mode: m})
		}
	}
	return out
}

func TestAllAnalyzersRun(t *testing.T) {
	for _, opt := range allConfigs() {
		res, err := AnalyzeSource("demo.c", demo, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", opt.Domain, opt.Mode, err)
		}
		if res.Stats.TimedOut {
			t.Errorf("%s/%s: timed out", opt.Domain, opt.Mode)
		}
		iv, ok := res.GlobalAtExit("g")
		if !ok {
			t.Fatalf("%s/%s: no global g", opt.Domain, opt.Mode)
		}
		// g = 0+1+...+9 = 45 must be contained (exact value needs
		// relational loop reasoning no analyzer here has).
		if !itv.Single(45).LessEq(iv) {
			t.Errorf("%s/%s: g = %s does not contain 45 (unsound)", opt.Domain, opt.Mode, iv)
		}
		if res.Stats.Statements == 0 || res.Stats.Functions != 2 {
			t.Errorf("%s/%s: bad stats %+v", opt.Domain, opt.Mode, res.Stats)
		}
	}
}

func TestSparseStatsPopulated(t *testing.T) {
	res, err := AnalyzeSource("demo.c", demo, Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DepEdges == 0 {
		t.Error("no dependency edges reported")
	}
	if res.Stats.AvgDefs <= 0 || res.Stats.AvgUses <= 0 {
		t.Errorf("avg D̂/Û not computed: %v %v", res.Stats.AvgDefs, res.Stats.AvgUses)
	}
	if res.Graph() == nil {
		t.Error("sparse result has no graph")
	}
}

func TestAlarmBufferOverrun(t *testing.T) {
	src := `
int a[10];
int main() {
	int i;
	for (i = 0; i <= 10; i++) {
		a[i] = i;       /* overruns at i == 10 */
	}
	return a[0];
}
`
	for _, mode := range []Mode{Base, Sparse} {
		res, err := AnalyzeSource("bo.c", src, Options{Domain: Interval, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, al := range res.Alarms() {
			if al.Kind == check.BufferOverrun {
				found = true
			}
		}
		if !found {
			t.Errorf("mode %s: overrun not reported; alarms: %v", mode, res.Alarms())
		}
	}
}

func TestNoFalseAlarmOnSafeAccess(t *testing.T) {
	src := `
int a[10];
int main() {
	int i;
	for (i = 0; i < 10; i++) {
		a[i] = i;
	}
	return a[0];
}
`
	res, err := AnalyzeSource("safe.c", src, Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range res.Alarms() {
		if al.Kind == check.BufferOverrun {
			t.Errorf("false overrun alarm on safe program: %v", al)
		}
	}
}

func TestAlarmNullDeref(t *testing.T) {
	src := `
int main() {
	int *p;
	p = 0;
	*p = 1;
	return 0;
}
`
	res, err := AnalyzeSource("null.c", src, Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, al := range res.Alarms() {
		if al.Kind == check.NullDeref {
			found = true
		}
	}
	if !found {
		t.Errorf("null deref not reported; alarms: %v", res.Alarms())
	}
}

func TestAlarmParityBaseVsSparse(t *testing.T) {
	// The sparse analyzer must report the same alarms as its underlying
	// base analyzer (precision preservation, observable end-to-end).
	src := cgen.Generate(cgen.Default(11, 600))
	base, err := AnalyzeSource("gen.c", src, Options{Domain: Interval, Mode: Base})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := AnalyzeSource("gen.c", src, Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	ab, as := base.Alarms(), sp.Alarms()
	key := func(a check.Alarm) string { return a.Pos.String() + "/" + a.Kind.String() }
	setB, setS := map[string]bool{}, map[string]bool{}
	for _, a := range ab {
		setB[key(a)] = true
	}
	for _, a := range as {
		setS[key(a)] = true
	}
	for k := range setB {
		if !setS[k] {
			t.Errorf("alarm %s reported by base but not sparse", k)
		}
	}
	for k := range setS {
		if !setB[k] {
			t.Errorf("alarm %s reported by sparse but not base", k)
		}
	}
}

func TestDefUseChainsCoarser(t *testing.T) {
	// Example 5 end to end: the du-chain variant must not be more precise
	// than the data-dependency variant anywhere, and is strictly coarser on
	// the Example 5 shape.
	src := `
int a; int b; int out;
int *x; int *w;
int **p;
int main() {
	p = &w;
	p = &x;
	x = &a;
	*p = &b;
	*x = 7;      /* writes b only with data deps; may write a with chains */
	out = a;
	return 0;
}
`
	dd, err := AnalyzeSource("ex5.c", src, Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	du, err := AnalyzeSource("ex5.c", src, Options{Domain: Interval, Mode: Sparse, DefUseChains: true})
	if err != nil {
		t.Fatal(err)
	}
	ivDD, _ := dd.GlobalAtExit("out")
	ivDU, _ := du.GlobalAtExit("out")
	if !ivDD.LessEq(ivDU) {
		t.Errorf("du-chains (%s) more precise than data deps (%s)?", ivDU, ivDD)
	}
	if !ivDD.Eq(itv.Single(0)) {
		t.Errorf("data deps: out = %s want [0,0] (strong update through *p)", ivDD)
	}
	if ivDU.Eq(ivDD) {
		t.Errorf("expected strict precision loss with du-chains; both gave %s", ivDD)
	}
}

func TestOctagonStats(t *testing.T) {
	res, err := AnalyzeSource("demo.c", demo, Options{Domain: Octagon, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PackCount == 0 {
		t.Error("no packs reported")
	}
	if res.Packs() == nil {
		t.Error("no pack set exposed")
	}
}

func TestGeneratedAllModes(t *testing.T) {
	src := cgen.Generate(cgen.Default(21, 400))
	for _, opt := range allConfigs() {
		res, err := AnalyzeSource("gen.c", src, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", opt.Domain, opt.Mode, err)
		}
		if res.Stats.TimedOut {
			t.Errorf("%s/%s timed out on small program", opt.Domain, opt.Mode)
		}
	}
}

func TestGeneratedSwitchGotoAllModes(t *testing.T) {
	cfg := cgen.Default(41, 500)
	cfg.SwitchEvery = 5
	cfg.Gotos = true
	src := cgen.Generate(cfg)
	var alarmKeys []map[string]bool
	for _, opt := range allConfigs() {
		res, err := AnalyzeSource("swgoto.c", src, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", opt.Domain, opt.Mode, err)
		}
		if res.Stats.TimedOut {
			t.Errorf("%s/%s timed out", opt.Domain, opt.Mode)
		}
		if opt.Domain == Interval && opt.Mode != Vanilla {
			set := map[string]bool{}
			for _, a := range res.Alarms() {
				set[a.Pos.String()+"/"+a.Kind.String()] = true
			}
			alarmKeys = append(alarmKeys, set)
		}
	}
	for k := range alarmKeys[1] { // sparse ⊆ base
		if !alarmKeys[0][k] {
			t.Errorf("sparse-only alarm %s (precision loss)", k)
		}
	}
}

func TestNoMainStillAnalyzes(t *testing.T) {
	res, err := AnalyzeSource("nomain.c", "int g = 5; int unused() { return g; }", Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := res.GlobalAtExit("g")
	if !ok || !iv.Eq(itv.Single(5)) {
		t.Errorf("g = %s ok=%v want [5,5]", iv, ok)
	}
	// Code unreachable from the root is not analyzed.
	unused := res.Prog.ProcByName("unused")
	if res.Reached(unused.Entry) {
		t.Error("unreachable function analyzed as reachable")
	}
}

func TestEmptySource(t *testing.T) {
	for _, opt := range allConfigs() {
		if _, err := AnalyzeSource("empty.c", "", opt); err != nil {
			t.Fatalf("%s/%s: %v", opt.Domain, opt.Mode, err)
		}
	}
}

func TestParseErrorPropagates(t *testing.T) {
	if _, err := AnalyzeSource("bad.c", "int main( {", Options{}); err == nil {
		t.Error("parse error not propagated")
	}
	if _, err := AnalyzeSource("bad2.c", "int main() { nosuchvar = 1; return 0; }", Options{}); err == nil {
		t.Error("lowering error not propagated")
	}
}

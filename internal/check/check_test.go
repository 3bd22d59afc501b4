package check

import (
	"strings"
	"testing"

	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/mem"
	"sparrow/internal/prean"
	"sparrow/internal/solver/dense"
)

func alarmsOf(t *testing.T, src string) []Alarm {
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
	s := pre.Sem(prog)
	res := dense.Analyze(prog, pre, s, mem.Bot, pre.Accessed, dense.IntervalStride, dense.Options{Localize: true})
	return Run(prog, s, res.Reached, func(pt ir.PointID) mem.Mem { return res.In[pt] })
}

func kinds(alarms []Alarm) map[Kind]int {
	out := map[Kind]int{}
	for _, a := range alarms {
		out[a.Kind]++
	}
	return out
}

func TestSafeProgramSilent(t *testing.T) {
	alarms := alarmsOf(t, `
int a[4];
int main() {
	int i;
	int *p;
	for (i = 0; i < 4; i++) { a[i] = i; }
	p = &i;
	*p = 3;
	return a[2];
}
`)
	if len(alarms) != 0 {
		t.Errorf("false alarms on safe program: %v", alarms)
	}
}

func TestConstantOverrun(t *testing.T) {
	alarms := alarmsOf(t, `
int a[4];
int main() {
	a[7] = 1;
	return 0;
}
`)
	k := kinds(alarms)
	if k[BufferOverrun] == 0 {
		t.Errorf("constant out-of-bounds write not reported: %v", alarms)
	}
}

func TestNegativeIndex(t *testing.T) {
	alarms := alarmsOf(t, `
int a[4];
int main() {
	int i;
	i = input();
	if (i < 4) { a[i] = 1; }   /* lower bound unchecked */
	return 0;
}
`)
	if kinds(alarms)[BufferOverrun] == 0 {
		t.Errorf("negative index not reported: %v", alarms)
	}
}

func TestNullAndWildPointers(t *testing.T) {
	alarms := alarmsOf(t, `
int main() {
	int *p;
	int *q;
	int x;
	p = 0;
	*p = 1;       /* null write */
	q = p;
	x = *q;       /* null read */
	return x;
}
`)
	if kinds(alarms)[NullDeref] < 2 {
		t.Errorf("null derefs not reported: %v", alarms)
	}
}

func TestMallocBounds(t *testing.T) {
	alarms := alarmsOf(t, `
int main() {
	int *p;
	int i;
	p = malloc(8);
	for (i = 0; i < 8; i++) { p[i] = i; }   /* safe */
	p[9] = 1;                                /* overrun */
	return 0;
}
`)
	k := kinds(alarms)
	if k[BufferOverrun] != 1 {
		t.Errorf("want exactly 1 overrun, got %v", alarms)
	}
}

func TestAlarmRendering(t *testing.T) {
	alarms := alarmsOf(t, `
int a[2];
int main() { a[5] = 1; return 0; }
`)
	if len(alarms) == 0 {
		t.Fatal("no alarms")
	}
	s := alarms[0].String()
	if !strings.Contains(s, "buffer-overrun") || !strings.Contains(s, "arr(a)") {
		t.Errorf("alarm rendering: %q", s)
	}
	if alarms[0].Pos.Line == 0 {
		t.Error("alarm has no source position")
	}
}

func TestUnreachableNotChecked(t *testing.T) {
	alarms := alarmsOf(t, `
int a[2];
int main() {
	int i;
	i = 5;
	if (i < 3) { a[9] = 1; }   /* dead */
	return 0;
}
`)
	if len(alarms) != 0 {
		t.Errorf("alarms from dead code: %v", alarms)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		BufferOverrun: "buffer-overrun",
		NullDeref:     "null-dereference",
		DivByZero:     "division-by-zero",
		UninitRead:    "uninitialized-read",
		Kind(99):      "alarm",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestComplementaryAssumeDedup pins the duplicate suppression: a
// dereference inside a branch condition is evaluated on both assume arms
// (same position, kind, and message), and Run must report it once.
func TestComplementaryAssumeDedup(t *testing.T) {
	alarms := alarmsOf(t, `
int a[4];
int main() {
	int i;
	i = input();
	if (a[i] > 0) { i = 1; } else { i = 2; }
	return i;
}
`)
	n := kinds(alarms)[BufferOverrun]
	if n != 1 {
		t.Errorf("condition deref reported %d times, want 1 (dedup): %v", n, alarms)
	}
}

// TestAlarmSortOrder checks the report order: ascending source line, then
// column, then kind.
func TestAlarmSortOrder(t *testing.T) {
	alarms := alarmsOf(t, `
int a[2];
int g;
int main() {
	int x;
	x = input();
	a[5] = 1;
	g = 10 / x;
	a[9] = 2;
	return 0;
}
`)
	if len(alarms) < 3 {
		t.Fatalf("want >= 3 alarms, got %v", alarms)
	}
	for i := 1; i < len(alarms); i++ {
		p, c := alarms[i-1], alarms[i]
		if p.Pos.Line > c.Pos.Line {
			t.Errorf("alarms out of line order: %v before %v", p, c)
		}
		if p.Pos.Line == c.Pos.Line && p.Pos.Col > c.Pos.Col {
			t.Errorf("alarms out of column order: %v before %v", p, c)
		}
	}
}

// TestWriteVsReadMessage distinguishes store and load dereferences in the
// rendered message.
func TestWriteVsReadMessage(t *testing.T) {
	alarms := alarmsOf(t, `
int a[2];
int main() {
	int x;
	a[5] = 1;
	x = a[7];
	return x;
}
`)
	var wrote, read bool
	for _, a := range alarms {
		if strings.Contains(a.Msg, "write through") {
			wrote = true
		}
		if strings.Contains(a.Msg, "read through") {
			read = true
		}
	}
	if !wrote || !read {
		t.Errorf("want both write and read alarms, got %v", alarms)
	}
}

// TestNilReachedChecksAllPoints runs the checkers with reached == nil
// (check every point), which must flag code the analysis proved dead.
func TestNilReachedChecksAllPoints(t *testing.T) {
	src := `
int a[2];
int main() {
	int i;
	i = 5;
	if (i < 3) { a[9] = 1; }   /* dead, but checked when reached == nil */
	return 0;
}
`
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	s := pre.Sem(prog)
	res := dense.Analyze(prog, pre, s, mem.Bot, pre.Accessed, dense.IntervalStride, dense.Options{})
	withReached := Run(prog, s, res.Reached, func(pt ir.PointID) mem.Mem { return res.In[pt] })
	if len(withReached) != 0 {
		t.Fatalf("reachability-filtered run alarmed: %v", withReached)
	}
	all := Run(prog, s, nil, func(pt ir.PointID) mem.Mem { return res.In[pt] })
	if len(all) != 0 {
		// The dead branch's memory is bottom, so its deref evaluates to a
		// dead value and stays silent — the nil filter must still not panic
		// and must visit every point. Reaching here with alarms is also
		// acceptable only for the dead store.
		for _, a := range all {
			if a.Kind != BufferOverrun {
				t.Errorf("unexpected alarm kind from nil-reached run: %v", a)
			}
		}
	}
}

func TestDivByZero(t *testing.T) {
	alarms := alarmsOf(t, `
int g;
int main() {
	int x; int y;
	x = input();
	g = 10 / x;              /* BUG: x may be 0 */
	if (x > 0) { g = g / x; }   /* refined to [1,+oo): safe */
	y = 4;
	g = g % y;               /* constant nonzero: safe */
	return g;
}
`)
	n := kinds(alarms)[DivByZero]
	if n != 1 {
		t.Errorf("want exactly 1 div-by-zero alarm, got %d: %v", n, alarms)
	}
	// An x != 0 guard cannot refine an interval's interior point, so the
	// guarded division still alarms (a known interval-domain limit).
	alarms2 := alarmsOf(t, `
int g;
int main() {
	int x;
	x = input();
	if (x != 0) { g = 10 / x; }
	return g;
}
`)
	if kinds(alarms2)[DivByZero] != 1 {
		t.Errorf("interior-point guard: got %v", alarms2)
	}
}

// TestSamePositionDistinctOverruns is the dedup-key regression test: one
// dereference targeting two blocks produces two distinct overruns at the
// same source position (same kind, different Off/Size/block), and both must
// survive deduplication — the key is Kind plus the offending access, not
// the position alone.
func TestSamePositionDistinctOverruns(t *testing.T) {
	alarms := alarmsOf(t, `
int a[2];
int b[4];
int main() {
	int *p;
	int i;
	i = input();
	if (i > 0) { p = a; } else { p = b; }
	p[9] = 1;   /* BUG x2: overruns a (size 2) and b (size 4) */
	return 0;
}
`)
	var overruns []Alarm
	for _, al := range alarms {
		if al.Kind == BufferOverrun {
			overruns = append(overruns, al)
		}
	}
	if len(overruns) != 2 {
		t.Fatalf("want 2 overruns at one dereference, got %v", alarms)
	}
	if overruns[0].Pos != overruns[1].Pos {
		t.Errorf("expected same position, got %v and %v", overruns[0].Pos, overruns[1].Pos)
	}
	if overruns[0].Size.Eq(overruns[1].Size) {
		t.Errorf("expected distinct block sizes, got %s and %s", overruns[0].Size, overruns[1].Size)
	}
}

func TestKindShortName(t *testing.T) {
	cases := map[Kind]string{
		BufferOverrun: "buf",
		NullDeref:     "null",
		DivByZero:     "div",
		UninitRead:    "uninit",
		Kind(99):      "alarm",
	}
	for k, want := range cases {
		if got := k.ShortName(); got != want {
			t.Errorf("Kind(%d).ShortName() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKinds(t *testing.T) {
	cases := []struct {
		spec string
		want []Kind
		err  bool
	}{
		{"all", AllKinds, false},
		{"buf,null,div", DefaultKinds, false},
		{"uninit", []Kind{UninitRead}, false},
		{"div, buf", []Kind{BufferOverrun, DivByZero}, false}, // canonical order, spaces ok
		{"buf,buf,all", AllKinds, false},                      // dedup
		{"", nil, false},
		{"bogus", nil, true},
	}
	for _, c := range cases {
		got, err := ParseKinds(c.spec)
		if c.err != (err != nil) {
			t.Errorf("ParseKinds(%q) error = %v, want err=%v", c.spec, err, c.err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseKinds(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseKinds(%q) = %v, want %v", c.spec, got, c.want)
				break
			}
		}
	}
}

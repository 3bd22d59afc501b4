package oct

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparrow/internal/lattice/itv"
)

func TestTopBottom(t *testing.T) {
	top := Top(3)
	bot := Bottom(3)
	if top.IsBottom() || !bot.IsBottom() {
		t.Fatal("top/bottom confusion")
	}
	if !bot.LessEq(top) || top.LessEq(bot) {
		t.Fatal("ordering of top/bottom wrong")
	}
	if !top.Interval(0).IsTop() {
		t.Errorf("top projects to %s", top.Interval(0))
	}
	if !bot.Interval(1).IsBot() {
		t.Errorf("bottom projects to %s", bot.Interval(1))
	}
}

func TestAssignProject(t *testing.T) {
	o := Top(2).AssignInterval(0, itv.OfInts(3, 7))
	if got := o.Interval(0); !got.Eq(itv.OfInts(3, 7)) {
		t.Errorf("x0 = %s want [3,7]", got)
	}
	if got := o.Interval(1); !got.IsTop() {
		t.Errorf("x1 = %s want top", got)
	}
}

func TestRelationalPropagation(t *testing.T) {
	// x0 in [0,10]; x1 := x0 + 1  =>  x1 - x0 = 1 and x1 in [1,11].
	o := Top(2).
		AssignInterval(0, itv.OfInts(0, 10)).
		AssignAddVar(1, 0, false, itv.Single(1))
	if got := o.Interval(1); !got.Eq(itv.OfInts(1, 11)) {
		t.Errorf("x1 = %s want [1,11]", got)
	}
	// Refining x0 must refine x1 through the relation: assume x0 <= 3.
	o2 := o.Assume(XLe, 0, 0, 3)
	if got := o2.Interval(1); !got.Eq(itv.OfInts(1, 4)) {
		t.Errorf("after x0<=3, x1 = %s want [1,4]", got)
	}
}

func TestNegAssign(t *testing.T) {
	o := Top(2).
		AssignInterval(0, itv.OfInts(2, 5)).
		AssignAddVar(1, 0, true, itv.Single(0)) // x1 := -x0
	if got := o.Interval(1); !got.Eq(itv.OfInts(-5, -2)) {
		t.Errorf("x1 = %s want [-5,-2]", got)
	}
}

func TestShiftKeepsRelation(t *testing.T) {
	// x1 := x0; x0 := x0 + 1  =>  x0 - x1 = 1 exactly.
	o := Top(2).
		AssignInterval(0, itv.OfInts(0, 0)).
		AssignAddVar(1, 0, false, itv.Single(0)).
		AssignAddVar(0, 0, false, itv.Single(1))
	// assume x1 >= 5 should force x0 >= 6... but x1 = 0 here, so bottom.
	if got := o.Assume(XGe, 1, 0, 5); !got.IsBottom() {
		t.Errorf("contradiction not detected: %s", got)
	}
	// x0 - x1 ≤ 1 and x1 - x0 ≤ -1 must hold: test via assumes.
	if got := o.Assume(XMinusYLe, 0, 1, 0); !got.IsBottom() {
		t.Errorf("x0 - x1 <= 0 should contradict x0 - x1 = 1: %s", got)
	}
}

func TestAssumeUnsat(t *testing.T) {
	o := Top(1).AssignInterval(0, itv.OfInts(0, 5))
	if got := o.Assume(XGe, 0, 0, 6); !got.IsBottom() {
		t.Errorf("x>=6 with x in [0,5] should be bottom, got %s", got)
	}
	if got := o.Assume(XLe, 0, 0, -1); !got.IsBottom() {
		t.Errorf("x<=-1 with x in [0,5] should be bottom, got %s", got)
	}
}

func TestSumConstraint(t *testing.T) {
	// x0 + x1 <= 10 with x0 >= 8 forces x1 <= 2.
	o := Top(2).
		Assume(XPlusYLe, 0, 1, 10).
		Assume(XGe, 0, 0, 8)
	if got := o.Interval(1); got.IsBot() || got.Hi().Cmp(itv.Fin(2)) != 0 {
		t.Errorf("x1 = %s want hi 2", got)
	}
}

func TestJoinMeetLattice(t *testing.T) {
	a := Top(2).AssignInterval(0, itv.OfInts(0, 4))
	b := Top(2).AssignInterval(0, itv.OfInts(3, 9))
	j := a.Join(b)
	if got := j.Interval(0); !got.Eq(itv.OfInts(0, 9)) {
		t.Errorf("join x0 = %s want [0,9]", got)
	}
	m := a.Meet(b)
	if got := m.Interval(0); !got.Eq(itv.OfInts(3, 4)) {
		t.Errorf("meet x0 = %s want [3,4]", got)
	}
	if !a.LessEq(j) || !b.LessEq(j) || !m.LessEq(a) || !m.LessEq(b) {
		t.Error("lattice bounds violated")
	}
}

func TestWidenTerminates(t *testing.T) {
	o := Top(1).AssignInterval(0, itv.Single(0))
	cur := o
	for i := 1; ; i++ {
		next := Top(1).AssignInterval(0, itv.OfInts(0, int64(i)))
		w := cur.Widen(cur.Join(next))
		if w.Eq(cur) {
			break
		}
		cur = w
		if i > 4 {
			t.Fatalf("widening chain did not stabilize: %s", cur)
		}
	}
	if got := cur.Interval(0); !got.Lo().IsFinite() || got.Lo().Int() != 0 || !got.Hi().IsPosInf() {
		t.Errorf("widened to %s want [0,+oo]", got)
	}
}

func TestNarrowRecovers(t *testing.T) {
	w := Top(1).AssignInterval(0, itv.Of(itv.Fin(0), itv.PosInf))
	refined := Top(1).AssignInterval(0, itv.OfInts(0, 100))
	n := w.Narrow(refined)
	if got := n.Interval(0); !got.Eq(itv.OfInts(0, 100)) {
		t.Errorf("narrowed to %s want [0,100]", got)
	}
}

func TestForget(t *testing.T) {
	o := Top(3).
		AssignInterval(0, itv.OfInts(1, 2)).
		AssignAddVar(1, 0, false, itv.Single(3)).
		AssignAddVar(2, 1, false, itv.Single(1))
	o = o.Forget(1)
	if got := o.Interval(1); !got.IsTop() {
		t.Errorf("forgotten x1 = %s want top", got)
	}
	// The x0–x2 relation established through x1 must survive (closure first):
	// x2 = x0 + 4 in [5,6].
	if got := o.Interval(2); !got.Eq(itv.OfInts(5, 6)) {
		t.Errorf("x2 = %s want [5,6]", got)
	}
	if got := o.Assume(XMinusYLe, 2, 0, 3); !got.IsBottom() {
		t.Errorf("x2 - x0 <= 3 should contradict x2 - x0 = 4")
	}
}

// TestRandomSoundness: random concrete runs must stay inside the abstract
// octagon after mirrored abstract operations.
func TestRandomSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const nv = 4
	for trial := 0; trial < 300; trial++ {
		conc := make([]int64, nv)
		o := Top(nv)
		for i := range conc {
			lo := int64(r.Intn(11) - 5)
			hi := lo + int64(r.Intn(5))
			conc[i] = lo + int64(r.Intn(int(hi-lo+1)))
			o = o.AssignInterval(i, itv.OfInts(lo, hi))
		}
		for step := 0; step < 12; step++ {
			x, y := r.Intn(nv), r.Intn(nv)
			c := int64(r.Intn(7) - 3)
			switch r.Intn(3) {
			case 0: // x := y + c
				conc[x] = conc[y] + c
				o = o.AssignAddVar(x, y, false, itv.Single(c))
			case 1: // x := -y + c
				conc[x] = -conc[y] + c
				o = o.AssignAddVar(x, y, true, itv.Single(c))
			default: // x := [c, c+2] picking a concrete point
				v := c + int64(r.Intn(3))
				conc[x] = v
				o = o.AssignInterval(x, itv.OfInts(c, c+2))
			}
			if o.IsBottom() {
				t.Fatalf("trial %d: abstract state became bottom on reachable run", trial)
			}
			for i := 0; i < nv; i++ {
				iv := o.Interval(i)
				if iv.IsBot() {
					t.Fatalf("trial %d: x%d projected to bottom", trial, i)
				}
				if iv.Lo().IsFinite() && conc[i] < iv.Lo().Int() ||
					iv.Hi().IsFinite() && conc[i] > iv.Hi().Int() {
					t.Fatalf("trial %d step %d: concrete x%d=%d outside %s (oct=%s)",
						trial, step, i, conc[i], iv, o)
				}
			}
		}
	}
}

// TestClosurePrecision: transitive constraints must be derivable.
func TestClosurePrecision(t *testing.T) {
	// x0 - x1 <= 1, x1 - x2 <= 2 => x0 - x2 <= 3.
	o := Top(3).
		Assume(XMinusYLe, 0, 1, 1).
		Assume(XMinusYLe, 1, 2, 2)
	if got := o.Assume(XMinusYLe, 2, 0, -4); !got.IsBottom() {
		t.Errorf("x2 - x0 <= -4 (i.e. x0 - x2 >= 4) should contradict x0 - x2 <= 3")
	}
	if got := o.Assume(XMinusYLe, 2, 0, -3); got.IsBottom() {
		t.Errorf("x0 - x2 = 3 should be satisfiable")
	}
}

func BenchmarkClose(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	o := Top(10)
	for i := 0; i < 30; i++ {
		o = o.Assume(XMinusYLe, r.Intn(10), r.Intn(10), int64(r.Intn(20)-5))
		if o.IsBottom() {
			o = Top(10)
		}
	}
	b.ResetTimer()
	for b.Loop() {
		c := o.clone()
		c.closed = false
		c.Closed()
	}
}

// TestAssumeAllMatchesChained: batching constraints into one closure must
// produce exactly the octagon the chained per-constraint closures produce —
// the invariant that lets the transfer functions close once per pack.
func TestAssumeAllMatchesChained(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ops := []TestOp{XMinusYLe, XPlusYLe, XLe, XGe}
	for trial := 0; trial < 200; trial++ {
		nv := 2 + r.Intn(4)
		o := Top(nv)
		for i := 0; i < nv; i++ {
			lo := int64(r.Intn(21) - 10)
			o = o.AssignInterval(i, itv.OfInts(lo, lo+int64(r.Intn(10))))
		}
		cs := make([]Constraint, 1+r.Intn(3))
		for i := range cs {
			cs[i] = Constraint{
				Op: ops[r.Intn(len(ops))],
				X:  r.Intn(nv),
				Y:  r.Intn(nv),
				C:  int64(r.Intn(13) - 6),
			}
		}
		chained := o
		for _, c := range cs {
			chained = chained.Assume(c.Op, c.X, c.Y, c.C)
		}
		batched := o.AssumeAll(cs...)
		if chained.IsBottom() != batched.IsBottom() {
			t.Fatalf("trial %d: bottom disagreement: chained=%v batched=%v (cs=%v)",
				trial, chained.IsBottom(), batched.IsBottom(), cs)
		}
		if !chained.IsBottom() && !chained.Eq(batched) {
			t.Fatalf("trial %d: chained %s != batched %s (cs=%v)", trial, chained, batched, cs)
		}
	}
}

// BenchmarkOctClosure measures the batched-vs-chained closure cost of the
// two-constraint assumes the transfer functions issue (equality tests): the
// batched path runs the cubic closure once.
func BenchmarkOctClosure(b *testing.B) {
	mk := func(n int) *Oct {
		r := rand.New(rand.NewSource(3))
		o := Top(n)
		for i := 0; i < 3*n; i++ {
			o = o.Assume(XMinusYLe, r.Intn(n), r.Intn(n), int64(r.Intn(20)-5))
			if o.IsBottom() {
				o = Top(n)
			}
		}
		return o
	}
	for _, n := range []int{4, 10} {
		o := mk(n)
		cs := [2]Constraint{
			{Op: XMinusYLe, X: 0, Y: 1},
			{Op: XMinusYLe, X: 1, Y: 0},
		}
		b.Run(fmt.Sprintf("chained/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				o.Assume(cs[0].Op, cs[0].X, cs[0].Y, cs[0].C).
					Assume(cs[1].Op, cs[1].X, cs[1].Y, cs[1].C)
			}
		})
		b.Run(fmt.Sprintf("batched/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				o.AssumeAll(cs[:]...)
			}
		})
	}
}

// TestDoubledBoundsRoundOutward: a unary constraint 2x ≤ 2c whose doubled
// bound leaves the int64 range, and a bound -c negated from c = MinInt64,
// must round outward, not wrap. Each case lists values of x the result
// must keep; before the bounds were saturated the first was bottom, the
// second kept only x ≤ -2^62 and the third only x ≥ 2^62 - 5, and before
// negation saturated the last two were bottom.
func TestDoubledBoundsRoundOutward(t *testing.T) {
	const big = int64(1) << 62
	const lo, hi = math.MinInt64, math.MaxInt64
	zero := Top(2).AssignInterval(0, itv.Zero).AssignInterval(1, itv.Zero)
	cases := []struct {
		name string
		o    *Oct
		keep []int64
	}{
		{"x := [0, 2^62]", Top(1).AssignInterval(0, itv.OfInts(0, big)), []int64{0, big}},
		{"assume x <= 2^62", Top(1).Assume(XLe, 0, 0, big), []int64{-big, 0, big}},
		{"assume x >= -2^62-5", Top(1).Assume(XGe, 0, 0, -big-5), []int64{-big - 5, 0, big}},
		{"x := [-2^62, 3]", Top(1).AssignInterval(0, itv.OfInts(-big, 3)), []int64{-big, 3}},
		{"x := x + 2^62", Top(1).AssignInterval(0, itv.OfInts(0, 1)).AssignAddVar(0, 0, false, itv.Single(big)), []int64{big, big + 1}},
		{"x := x - 2^62", Top(1).AssignInterval(0, itv.OfInts(0, 1)).AssignAddVar(0, 0, false, itv.Single(-big)), []int64{-big, -big + 1}},
		{"x := [MinInt64, MaxInt64]", Top(1).AssignInterval(0, itv.OfInts(lo, hi)), []int64{lo, -big, 0, big, hi}},
		{"assume x >= MinInt64", Top(1).Assume(XGe, 0, 0, lo), []int64{lo, 0, hi}},
		{"x0 := x1 + [MinInt64, 0]", zero.AssignAddVar(0, 1, false, itv.OfInts(lo, 0)), []int64{lo, -big, 0}},
		{"x0 := x0 + [MinInt64, 0]", zero.AssignAddVar(0, 0, false, itv.OfInts(lo, 0)), []int64{lo, -big, 0}},
	}
	// Saturated interval arithmetic assigns x := [MinInt64, MaxInt64]; the
	// octagon must not constrain x at all.
	if o := Top(1).AssignInterval(0, itv.OfInts(lo, hi)); !o.Interval(0).IsTop() {
		t.Errorf("x := [MinInt64, MaxInt64]: x in %s, want top", o.Interval(0))
	}
	for _, c := range cases {
		iv := c.o.Interval(0)
		for _, v := range c.keep {
			if iv.IsBot() || iv.Lo().IsFinite() && v < iv.Lo().Int() || iv.Hi().IsFinite() && v > iv.Hi().Int() {
				t.Errorf("%s: x in %s loses %d", c.name, iv, v)
			}
		}
	}
}

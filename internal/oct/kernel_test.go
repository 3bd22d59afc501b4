package oct

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sparrow/internal/lattice/itv"
)

// randOct builds a random satisfiable octagon over n variables, widened once
// so that it is stored unclosed half of the time.
func randOct(r *rand.Rand, n int) *Oct {
	o := Top(n)
	for i := 0; i < n; i++ {
		lo := int64(r.Intn(21) - 10)
		o = o.AssignInterval(i, itv.OfInts(lo, lo+int64(r.Intn(10))))
	}
	if n > 1 {
		o = o.AssignAddVar(1, 0, r.Intn(2) == 0, itv.Single(int64(r.Intn(5)-2)))
	}
	if r.Intn(2) == 0 {
		grown := o.AssignInterval(r.Intn(n), itv.OfInts(-20, 20))
		o = o.Widen(o.Join(grown))
	}
	return o
}

// sameRep reports whether two octagons have the same representation: the
// same emptiness, closure flag and stored matrix.
func sameRep(a, b *Oct) bool {
	if a.bot || b.bot {
		return a.bot == b.bot
	}
	return a.closed == b.closed && slices.Equal(a.m, b.m)
}

// TestWeakAssignMatchesJoin: a weak update built in one matrix must be the
// octagon joining the strong update into the old value produces.
func TestWeakAssignMatchesJoin(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(5)
		o := randOct(r, n)
		x, y := r.Intn(n), r.Intn(n)
		lo := int64(r.Intn(11) - 5)
		v := itv.OfInts(lo, lo+int64(r.Intn(4)))
		if r.Intn(4) == 0 {
			v = itv.Of(itv.Fin(lo), itv.PosInf)
		}
		neg := r.Intn(2) == 0
		if got, want := o.WeakAssignInterval(x, v), o.Join(o.AssignInterval(x, v)); !sameRep(got, want) {
			t.Fatalf("trial %d: weak x%d := %s: %s, join gives %s", trial, x, v, got, want)
		}
		if got, want := o.WeakAssignAddVar(x, y, neg, v), o.Join(o.AssignAddVar(x, y, neg, v)); !sameRep(got, want) {
			t.Fatalf("trial %d: weak x%d := ±x%d + %s: %s, join gives %s", trial, x, y, v, got, want)
		}
	}
}

// TestWidenCarriesClosure: the closure a widening result carries is the one
// closing its stored matrix computes, and the stored matrix stays unclosed
// for the next widening.
func TestWidenCarriesClosure(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(4)
		a, b := randOct(r, n), randOct(r, n)
		w := a.Widen(a.Join(b))
		if w.bot || w.closed {
			continue
		}
		fresh := w.clone().closeOwned()
		if !sameRep(w.Closed(), fresh) {
			t.Fatalf("trial %d: carried closure %s, closing gives %s", trial, w.Closed(), fresh)
		}
		if w.Closed() != w.Closed() {
			t.Fatalf("trial %d: closure recomputed", trial)
		}
	}
}

// maxJoin is the reference join: the pointwise max of the two closures,
// and whether it differs from closed(o).
func maxJoin(o, p *Oct) (*Oct, bool) {
	oc, pc := o.Closed(), p.Closed()
	switch {
	case oc.bot:
		return pc, !pc.bot
	case pc.bot:
		return oc, false
	}
	out := oc.clone()
	changed := false
	for i, v := range pc.m {
		if v > out.m[i] {
			out.m[i], changed = v, true
		}
	}
	return out, changed
}

// TestJoinChangedMatchesMax: the fused join, with its covered and covering
// shortcuts, must report the reference's change and return an octagon of
// the same representation, over widened (unclosed) and bottom operands and
// pairs where one side covers the other or nearly does.
func TestJoinChangedMatchesMax(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	pick := func(n int) *Oct {
		if r.Intn(8) == 0 {
			return Bottom(n)
		}
		return randOct(r, n)
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(5)
		o, p := pick(n), pick(n)
		switch r.Intn(5) {
		case 0:
			p = o.Join(p) // p covers o
		case 1:
			o = o.Join(p) // o covers p
		case 2:
			// p covers o but for one relation, tightened by one.
			p = o.Join(p)
			if x, y := r.Intn(n), r.Intn(n); x != y && !p.IsBottom() {
				if c := p.Closed().at(2*y, 2*x); c != inf {
					p = p.Assume(XMinusYLe, x, y, c-1)
				}
			}
		}
		got, gch := o.JoinChanged(p)
		want, wch := maxJoin(o, p)
		if gch != wch || !sameRep(got, want) {
			t.Fatalf("trial %d: %s ⊔ %s = %s (changed %v), max gives %s (changed %v)",
				trial, o, p, got, gch, want, wch)
		}
	}
}

// TestKernelAllocations pins the copy-free contract: a converged join or
// delivery and a join its right operand covers build nothing, a transfer
// builds one matrix (header included for packs of up to four variables),
// and projecting a widened octagon does not re-close it. The bytes pin the
// half-matrix size classes: a three-variable octagon is its 48-byte header
// and 24 entries, 240 bytes; a ten-variable one is a header and 220
// entries in the 1792-byte class.
func TestKernelAllocations(t *testing.T) {
	o := Top(3).AssignInterval(0, itv.OfInts(0, 9)).AssignAddVar(1, 0, false, itv.Single(1))
	w := o.Widen(o.Join(o.AssignInterval(0, itv.OfInts(0, 20))))
	joined := o.AssignInterval(2, itv.OfInts(1, 2)).Join(o)
	ten := Top(10).AssignInterval(0, itv.OfInts(0, 9)).AssignAddVar(1, 0, false, itv.Single(1))
	cases := []struct {
		name   string
		allocs float64
		bytes  uint64
		f      func()
	}{
		{"converged join", 0, 0, func() { joined.JoinChanged(o) }},
		{"covering join", 0, 0, func() { o.JoinChanged(w) }},
		{"widened projection", 0, 0, func() { w.Interval(1) }},
		{"assign interval", 1, 240, func() { o.AssignInterval(2, itv.OfInts(3, 4)) }},
		{"assign var", 1, 240, func() { w.AssignAddVar(2, 1, false, itv.Single(2)) }},
		{"weak assign", 1, 240, func() { o.WeakAssignAddVar(2, 1, true, itv.Single(2)) }},
		{"shift", 1, 240, func() { w.AssignAddVar(0, 0, false, itv.Single(1)) }},
		{"assign var, ten variables", 2, 48 + 1792, func() { ten.AssignAddVar(2, 1, false, itv.Single(2)) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got != c.allocs {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.allocs)
		}
		if got := bytesPerRun(100, c.f); got != c.bytes {
			t.Errorf("%s: %d bytes, want %d", c.name, got, c.bytes)
		}
	}
}

// bytesPerRun returns the bytes f allocates per call, averaged over runs
// calls after a warm-up one, as testing.AllocsPerRun does for counts.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkTransfer measures the transfer mix of the relational fixpoint on
// a three-variable pack: a strong and a weak assignment, a widened operand,
// and a converged delivery.
func BenchmarkTransfer(b *testing.B) {
	o := Top(3).AssignInterval(0, itv.OfInts(0, 9)).AssignAddVar(1, 0, false, itv.Single(1))
	w := o.Widen(o.Join(o.AssignInterval(0, itv.OfInts(0, 20))))
	b.ReportAllocs()
	for b.Loop() {
		a := w.AssignAddVar(2, 1, false, itv.Single(2))
		a = a.WeakAssignInterval(0, itv.OfInts(0, 3))
		a.JoinChanged(o)
		w.Interval(0)
	}
}

// refAssignInterval is assignInterval as it was before the strengthening
// replay: forget x, set its two unary bounds, and run the full closure.
func refAssignInterval(o *Oct, x int, v itv.Itv) *Oct {
	if o.bot {
		return o
	}
	if v.IsBot() {
		return Bottom(o.n)
	}
	oc := o.Closed()
	if oc.bot {
		return oc
	}
	out := oc.clone()
	out.forget(x)
	h, l, _ := doubledBounds(v)
	out.set(bar(2*x), 2*x, h)
	out.set(2*x, bar(2*x), l)
	return out.closeOwned()
}

// assignBound draws an interval endpoint: small, or near the point where
// doubling a bound overflows.
func assignBound(r *rand.Rand) int64 {
	if r.Intn(4) > 0 {
		return int64(r.Intn(41) - 20)
	}
	huge := []int64{1<<61 + 3, 1<<62 - 1, 1 << 62, 1<<62 + 1, math.MaxInt64 / 2, math.MaxInt64 - 2}
	b := huge[r.Intn(len(huge))]
	if r.Intn(2) == 0 {
		b = -b
	}
	return b
}

// assignItv draws a finite, half-infinite, top or bottom interval.
func assignItv(r *rand.Rand) itv.Itv {
	a, b := assignBound(r), assignBound(r)
	if a > b {
		a, b = b, a
	}
	switch r.Intn(8) {
	case 0:
		return itv.Top
	case 1:
		return itv.Of(itv.NegInf, itv.Fin(b))
	case 2:
		return itv.Of(itv.Fin(a), itv.PosInf)
	case 3:
		return itv.Bot
	}
	return itv.OfInts(a, b)
}

// assignInput draws a closed, joined, widened (unclosed, with its closure)
// or bottom octagon over n variables, with small or near-overflow bounds.
func assignInput(r *rand.Rand, n int) *Oct {
	build := func() *Oct {
		o := Top(n)
		for k := 0; k < n; k++ {
			if r.Intn(3) > 0 {
				o = refAssignInterval(o, k, assignItv(r))
			}
		}
		for k := 0; k+1 < n; k++ {
			if r.Intn(2) == 0 {
				o = o.Assume(XMinusYLe, k, k+1, assignBound(r))
			}
		}
		return o
	}
	o := build()
	switch r.Intn(5) {
	case 0:
		return o.Join(build())
	case 1:
		return o.Widen(o.Join(build()))
	case 2:
		return Bottom(n)
	}
	return o
}

// TestAssignIntervalMatchesClosure pins the strengthening replay of
// assignInterval to the full closure it replaced: the same matrix, closure
// flag and emptiness on closed, joined, widened and bottom inputs, for
// finite, half-infinite, top and near-overflow bounds, over 75,000 trials.
// Each of the three seeds draws an input whose closure saturated on a
// near-overflow bound and is not a fixpoint once that variable is
// forgotten, the case the replay must leave to the full closure.
func TestAssignIntervalMatchesClosure(t *testing.T) {
	for _, seed := range []int64{22, 94, 126} {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25000; trial++ {
			n := 1 + r.Intn(5)
			o := assignInput(r, n)
			x, v := r.Intn(n), assignItv(r)
			want, got := refAssignInterval(o, x, v), o.AssignInterval(x, v)
			if !sameRep(want, got) || got.cl != nil {
				t.Fatalf("seed %d trial %d: x%d := %s on %v:\n want %v (closed %v) %v\n got  %v (closed %v) %v",
					seed, trial, x, v, o, want, want.closed, want.m, got, got.closed, got.m)
			}
		}
	}
}

// closeStored closes o's stored matrix from scratch, trusting no flag.
func closeStored(o *Oct) *Oct {
	if o.bot {
		return o
	}
	c := alloc(o.n)
	copy(c.m, o.m)
	return c.closeOwned()
}

// forgetStable reports the first variable whose projection differs between
// o with variable h forgotten and the fresh closure of that octagon's
// stored matrix. Forgetting a variable of a normal octagon leaves it
// normal, so the two agree unless o's closure was not normal.
func forgetStable(o *Oct, h int) (int, itv.Itv, itv.Itv, bool) {
	f := o.Closed().Forget(h)
	g := closeStored(f)
	if g.bot {
		return 0, itv.Bot, itv.Bot, true
	}
	for k := 0; k < o.n; k++ {
		if got, want := f.Interval(k), g.Interval(k); k != h && !got.Eq(want) {
			return k, got, want, false
		}
	}
	return 0, itv.Bot, itv.Bot, true
}

// TestSaturatedClosureNotNormal: a closure whose path sums saturate near
// ±2^62 is not a fixpoint of the closure, so it must not be marked closed.
// In both cases below a sum clamps (to the +∞ marker in the second), and
// once x2 is forgotten, closing again bounds a variable the saturated
// closure had left looser. A random sweep over near-overflow octagons
// checks the same property.
func TestSaturatedClosureNotNormal(t *testing.T) {
	cases := []*Oct{
		// x1 ≥ -2^62, x1 - x2 ≤ -16, x2 + x0 ≤ 14: x0 ≤ -2^62 - 2.
		Top(3).AssignInterval(1, itv.Of(itv.Fin(-1<<62), itv.PosInf)).
			Assume(XMinusYLe, 1, 2, -16).Assume(XPlusYLe, 2, 0, 14),
		// x0 ≥ -(2^62 - 1), x0 - x2 ≤ 1, x1 + x2 ≤ 3: x1 ≤ 2^62 + 3.
		Top(3).AssignInterval(0, itv.OfInts(-(1<<62-1), 2)).
			Assume(XMinusYLe, 0, 2, 1).Assume(XPlusYLe, 1, 2, 3),
	}
	for i, o := range cases {
		if k, got, want, ok := forgetStable(o, 2); !ok {
			t.Errorf("case %d: x2 forgotten, x%d in %s; closing again gives %s", i, k, got, want)
		}
	}
	r := rand.New(rand.NewSource(28))
	for trial := 0; trial < 20000; trial++ {
		n := 2 + r.Intn(4)
		o := assignInput(r, n)
		h := r.Intn(n)
		if k, got, want, ok := forgetStable(o, h); !ok {
			t.Fatalf("trial %d: %v with x%d forgotten: x%d in %s; closing again gives %s", trial, o, h, k, got, want)
		}
	}
}

package oct

import (
	"math/rand"
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
// and projecting a widened octagon does not re-close it.
func TestKernelAllocations(t *testing.T) {
	o := Top(3).AssignInterval(0, itv.OfInts(0, 9)).AssignAddVar(1, 0, false, itv.Single(1))
	w := o.Widen(o.Join(o.AssignInterval(0, itv.OfInts(0, 20))))
	joined := o.AssignInterval(2, itv.OfInts(1, 2)).Join(o)
	cases := []struct {
		name string
		want float64
		f    func()
	}{
		{"converged join", 0, func() { joined.JoinChanged(o) }},
		{"covering join", 0, func() { o.JoinChanged(w) }},
		{"widened projection", 0, func() { w.Interval(1) }},
		{"assign interval", 1, func() { o.AssignInterval(2, itv.OfInts(3, 4)) }},
		{"assign var", 1, func() { w.AssignAddVar(2, 1, false, itv.Single(2)) }},
		{"weak assign", 1, func() { o.WeakAssignAddVar(2, 1, true, itv.Single(2)) }},
		{"shift", 1, func() { w.AssignAddVar(0, 0, false, itv.Single(1)) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
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

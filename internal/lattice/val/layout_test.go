package val

import (
	"testing"
	"unsafe"

	"sparrow/internal/lattice/itv"
)

// TestLayout pins the compact value layout: an interval is two int64 bounds
// plus their marks, and a value is an interval, one pointer and a bit. The
// fixpoint memories copy values by value, so growing either type is a
// measurable cost on every solver.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(itv.Itv{}); got != 24 {
		t.Errorf("itv.Itv is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Val{}); got != 40 {
		t.Errorf("val.Val is %d bytes, want 40", got)
	}
}

var sinkVal Val

// TestValueAllocations pins the allocation-free paths the fixpoint loops
// rely on: a converged join or widening returns an operand, a join or
// widening whose reference components equal an operand's shares them even
// when they sit behind distinct pointers, and replacing or narrowing the
// numeric part shares the reference components.
func TestValueAllocations(t *testing.T) {
	p := FromPtr(3, reg(0, 4, 8, 8)).Join(FromFunc(2)).Join(FromItv(itv.OfInts(0, 9)))
	q := FromPtr(3, reg(0, 2, 8, 8)).Join(FromItv(itv.OfInts(1, 5)))
	grown := p.Join(FromFunc(5))
	wide := p.WithItv(itv.AtLeast(0))
	// Covering operands behind pointers of their own: q's target with a
	// larger interval, p's components copied, and a strict superset of p's.
	qWide := q.WithItv(itv.OfInts(-3, 20))
	pCopy := copyRefs(p).WithItv(itv.OfInts(5, 30))
	pMore := FromPtr(3, reg(0, 6, 8, 8)).Join(FromPtr(4, reg(0, 0, 1, 1))).Join(FromFunc(2)).Join(FromFunc(7))
	cases := []struct {
		name string
		f    func()
	}{
		{"unchanged join", func() { sinkVal, _ = p.JoinChanged(q) }},
		{"unchanged join, shared refs", func() { sinkVal, _ = p.JoinChanged(p.WithItv(itv.Single(3))) }},
		{"unchanged widening", func() { sinkVal, _ = p.WidenChanged(grown) }},
		{"with itv", func() { sinkVal = p.WithItv(itv.OfInts(-1, 1)) }},
		{"narrow", func() { sinkVal = wide.Narrow(p) }},
		{"narrow changed", func() { sinkVal, _ = wide.NarrowChanged(p) }},
		{"join with a number", func() { sinkVal = p.Join(Const(12)) }},
		{"covering join", func() { sinkVal, _ = p.JoinChanged(qWide) }},
		{"covered join", func() { sinkVal = q.Join(p) }},
		{"join of equal components", func() { sinkVal, _ = p.JoinChanged(pCopy) }},
		{"join with a superset", func() { sinkVal, _ = p.JoinChanged(pMore) }},
		{"widening that keeps the components", func() { sinkVal, _ = p.WidenChanged(pCopy) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, got)
		}
	}
	if _, ch := p.JoinChanged(q); ch {
		t.Error("q ⋢ p: the unchanged-join case is not exercised")
	}
	if _, ch := p.WidenChanged(grown); ch {
		t.Error("widening p towards grown extrapolates: the unchanged case is not exercised")
	}
	for _, w := range []Val{qWide, pCopy, pMore} {
		if _, ch := p.JoinChanged(w); !ch || w.ref == p.ref {
			t.Errorf("p ⊔ %s: the covering cases must change p and hold components of their own", w)
		}
	}
	if _, ch := p.WidenChanged(pCopy); !ch {
		t.Error("widening p towards pCopy must extrapolate its interval")
	}
}

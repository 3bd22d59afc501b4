package val

import (
	"math/rand"
	"slices"
	"testing"

	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
)

// The always-merging operations the sharing ones replaced: a join or
// widening of two values with reference components builds a merged copy
// unless a side is nil or both are the same pointer.

func refMergeRefs(a, b *refs, comb func(Region, Region) Region) *refs {
	switch {
	case b == nil || a == b:
		return a
	case a == nil:
		return b
	}
	return &refs{ptr: mergePtr(a.ptr, b.ptr, comb), fns: mergeFns(a.fns, b.fns)}
}

func refJoin(v, w Val) Val {
	return Val{I: v.I.Join(w.I), ref: refMergeRefs(v.ref, w.ref, Region.Join), uninit: v.uninit || w.uninit}
}

func refWiden(v, w Val) Val {
	return Val{I: v.I.Widen(w.I), ref: refMergeRefs(v.ref, w.ref, Region.Widen), uninit: v.uninit || w.uninit}
}

func refJoinChanged(v, w Val) (Val, bool) {
	if w.LessEq(v) {
		return v, false
	}
	return refJoin(v, w), true
}

func refWidenChanged(v, w Val) (Val, bool) {
	wi := v.I.Widen(w.I)
	if wi.Eq(w.I) && (v.ref == nil || v.ref == w.ref ||
		widenPtrKeeps(v.Ptr(), w.Ptr()) && fnsSubset(v.Fns(), w.Fns())) &&
		(!v.uninit || w.uninit) {
		return w, false
	}
	return refWiden(v, w), true
}

// sameRefs reports whether two reference components hold the same entries,
// bit for bit.
func sameRefs(a, b *refs) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.ptr, b.ptr) && slices.Equal(a.fns, b.fns)
}

// nestedItvs are region intervals, most of them nested in one another, so
// that drawn regions are often comparable.
var nestedItvs = []itv.Itv{
	itv.Bot, itv.Zero, itv.OfInts(0, 2), itv.OfInts(0, 4), itv.OfInts(-1, 4),
	itv.AtLeast(0), itv.Top, itv.OfInts(3, 5),
}

// reader reads fuzz data a byte at a time, yielding zeros once exhausted.
type reader []byte

func (d *reader) next() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

// operand decodes one value: an interval or bottom, up to four points-to
// targets among eight locations with regions drawn from nestedItvs,
// functions from a bitmask, and the uninit bit.
func (d *reader) operand() Val {
	var v Val
	flags := d.next()
	if flags&1 != 0 {
		lo := int64(d.next()%11) - 5
		v.I = itv.OfInts(lo, lo+int64(d.next()%4))
		if flags&2 != 0 {
			v.I = itv.Top
		}
	}
	v.uninit = flags&4 != 0
	var ptr []PtrEntry
	for range int(flags>>3) % 5 {
		b := d.next()
		r := Region{Off: nestedItvs[b%8], Sz: nestedItvs[(b>>3)%8]}
		ptr = append(ptr, PtrEntry{Loc: ir.LocID(d.next() % 8), R: r})
	}
	slices.SortStableFunc(ptr, func(x, y PtrEntry) int { return int(x.Loc) - int(y.Loc) })
	ptr = dedupPtr(ptr)
	var fns []ir.ProcID
	for f, mask := 0, d.next(); f < 4; f++ {
		if mask&(1<<f) != 0 {
			fns = append(fns, ir.ProcID(f))
		}
	}
	v.ref = mkRefs(ptr, fns)
	return v
}

// copyRefs returns v with its reference components copied behind a new
// pointer: equal content, no sharing.
func copyRefs(v Val) Val {
	if v.ref != nil {
		v.ref = &refs{ptr: slices.Clone(v.ref.ptr), fns: slices.Clone(v.ref.fns)}
	}
	return v
}

// operands decodes a pair of operands and how they relate: independent,
// pointer-identical, equal content behind distinct pointers, or one the
// (reference) join of both, a superset of the other that is strict unless
// the other already covered it.
func operands(data []byte) (Val, Val) {
	d := reader(data)
	a, b := d.operand(), d.operand()
	switch d.next() % 6 {
	case 1:
		b = a
	case 2:
		b = copyRefs(a)
	case 3:
		b = refJoin(a, b)
	case 4:
		a = refJoin(a, b)
	}
	return a, b
}

// checkAgainstReference compares the sharing operations with the
// always-merging references on one pair: equal results and change flags,
// and whenever the merge would equal an operand's reference components,
// that operand's pointer itself.
func checkAgainstReference(t *testing.T, a, b Val) {
	t.Helper()
	wantRef := func(op string, got *refs, merged *refs, sides ...*refs) {
		t.Helper()
		for _, s := range sides {
			if sameRefs(merged, s) {
				if got != s {
					t.Fatalf("%s %s, %s: result does not share the covering operand's components", op, a, b)
				}
				return
			}
		}
	}
	j, rj := a.Join(b), refJoin(a, b)
	if !j.Eq(rj) || !sameRefs(j.ref, rj.ref) {
		t.Fatalf("%s ⊔ %s = %s, reference %s", a, b, j, rj)
	}
	wantRef("join", j.ref, rj.ref, a.ref, b.ref)

	w, rw := a.Widen(b), refWiden(a, b)
	if !w.Eq(rw) || !sameRefs(w.ref, rw.ref) {
		t.Fatalf("%s ∇ %s = %s, reference %s", a, b, w, rw)
	}
	wantRef("widening", w.ref, rw.ref, b.ref)

	jc, ch := a.JoinChanged(b)
	rjc, rch := refJoinChanged(a, b)
	if ch != rch || !jc.Eq(rjc) {
		t.Fatalf("JoinChanged %s, %s = %s %v, reference %s %v", a, b, jc, ch, rjc, rch)
	}
	wc, ch := a.WidenChanged(b)
	rwc, rch := refWidenChanged(a, b)
	if ch != rch || !wc.Eq(rwc) {
		t.Fatalf("WidenChanged %s, %s = %s %v, reference %s %v", a, b, wc, ch, rwc, rch)
	}
	if !ch && wc.ref != b.ref {
		t.Fatalf("WidenChanged %s, %s: an unchanged widening does not return its argument", a, b)
	}
}

// TestJoinMatchesReference pins Join, Widen, JoinChanged and WidenChanged
// to the always-merging references on random operand pairs, and requires
// the sharing wherever an operand covers the result.
func TestJoinMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	data := make([]byte, 24)
	shared, fresh := 0, 0
	for trial := 0; trial < 50000; trial++ {
		r.Read(data)
		a, b := operands(data)
		checkAgainstReference(t, a, b)
		if j := a.Join(b); j.ref != nil && a.ref != b.ref {
			if j.ref == a.ref || j.ref == b.ref {
				shared++
			} else {
				fresh++
			}
		}
	}
	if shared < 1000 || fresh < 1000 {
		t.Errorf("draws exercise %d sharing and %d merging joins of distinct components, want 1000 each", shared, fresh)
	}
}

// FuzzValueJoin runs the reference comparison on fuzzed operand pairs.
func FuzzValueJoin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x19, 3, 2, 0x0a, 5, 1, 0x11, 7, 2, 4, 0, 0x0b, 3})
	f.Add([]byte{0x2d, 1, 2, 0x12, 6, 0x33, 6, 9, 0x29, 7, 1, 0x1e, 6, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := operands(data)
		checkAgainstReference(t, a, b)
	})
}

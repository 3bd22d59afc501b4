// Package octsem implements the packed relational abstract semantics of
// Section 4: abstract states map variable packs to octagons
// (S# = Packs → R#), commands are transformed into the internal relational
// language (exact for the octagon-expressible assignments x := ±y + c,
// interval projections otherwise), and pointer effects are resolved against
// the flow-insensitive pre-analysis.
package octsem

import (
	"strconv"
	"strings"

	"sparrow/internal/oct"
	"sparrow/internal/pack"
	"sparrow/internal/pmap"
)

// OMem is an abstract state of the relational analysis: a persistent map
// from pack IDs to octagons. Absent packs are bottom (no value has reached
// them); the root entry injects Top for every pack, modeling arbitrary
// initial contents.
type OMem struct {
	m pmap.Map[*oct.Oct]
}

// OBot is the bottom state.
var OBot = OMem{}

// FromSorted returns the state binding ps[i] to vals[i], built in one O(n)
// pass; ps must be strictly ascending. The slices are not retained.
func FromSorted(ps []pack.ID, vals []*oct.Oct) OMem {
	return OMem{m: pmap.FromSorted(ps, vals)}
}

// Get returns the octagon of pack p, or nil when the pack is bottom.
func (m OMem) Get(p pack.ID) *oct.Oct {
	o, _ := m.m.Get(int32(p))
	return o
}

// Set binds pack p.
func (m OMem) Set(p pack.ID, o *oct.Oct) OMem {
	return OMem{m: m.m.Insert(int32(p), o)}
}

// Len returns the number of bound packs.
func (m OMem) Len() int { return m.m.Len() }

// Range visits bindings in ascending pack order.
func (m OMem) Range(f func(p pack.ID, o *oct.Oct) bool) {
	m.m.Range(func(k int32, o *oct.Oct) bool { return f(pack.ID(k), o) })
}

// Octagon values are reused only on pointer equality, never on semantic
// equality: Widen uses its left argument *as stored* (closing between
// widenings would break termination), so substituting a semantically-equal
// but differently-represented octagon would change later widening results.
// Pointer-equal reuse is exact — same object, same representation.

// Join returns the pointwise least upper bound. Subtrees whose bindings all
// alias between m and o are returned as-is.
func (m OMem) Join(o OMem) OMem {
	return OMem{m: pmap.MergeIdent(m.m, o.m, func(_ int32, a, b *oct.Oct) (*oct.Oct, bool) {
		if a == b {
			return a, true
		}
		j := a.Join(b)
		return j, j == a
	})}
}

// Widen returns the pointwise widening.
func (m OMem) Widen(o OMem) OMem {
	return OMem{m: pmap.MergeIdent(m.m, o.m, func(_ int32, a, b *oct.Oct) (*oct.Oct, bool) {
		if a == b {
			return a, true
		}
		return a.Widen(b), false
	})}
}

// JoinChanged returns m.Join(o) together with whether the join differs
// semantically from m (absent packs are bottom, as in Eq), fusing the
// Join-then-Eq pair of the dense octagon solver. When unchanged, m itself is
// returned — keeping m's stored representations and omitting explicit-bottom
// packs of o, exactly like the keep-the-old-map path it replaces; when
// changed, every common pack carries the (closed) octagon plain Join would
// have produced, which is the old closed octagon itself where that pack did
// not change.
func (m OMem) JoinChanged(o OMem) (OMem, bool) {
	r, ch := pmap.MergeChanged(m.m, o.m, func(_ int32, a, b *oct.Oct) (*oct.Oct, bool, bool) {
		if a == b {
			return a, true, false
		}
		j, jch := a.JoinChanged(b)
		return j, j == a, jch
	}, octNonBot)
	if !ch {
		return m, false
	}
	return OMem{m: r}, true
}

// WidenChanged returns m.Widen(o) together with whether the result differs
// semantically from o; callers pass o = m.Join(new) (so o's domain covers
// m's) and count the flag as an effective widening. Unlike the interval
// side, the built result is returned even when unchanged: the ascending loop
// it serves always stored the widening output, whose unclosed
// representations the next widening depends on.
func (m OMem) WidenChanged(o OMem) (OMem, bool) {
	r, ch := pmap.MergeChanged(o.m, m.m, func(_ int32, a, b *oct.Oct) (*oct.Oct, bool, bool) {
		if a == b {
			return a, true, false
		}
		w := b.Widen(a)
		return w, false, !w.Eq(a)
	}, octNonBot)
	return OMem{m: r}, ch
}

// Narrow returns the pointwise narrowing (bindings absent from o are kept).
func (m OMem) Narrow(o OMem) OMem {
	r, _ := m.NarrowChanged(o)
	return r
}

// NarrowChanged returns m.Narrow(o) together with whether any binding
// narrowed semantically. When nothing narrowed, m itself is returned (the
// loops kept the old map); when something did, every common pack carries a
// freshly narrowed octagon, matching the all-fresh map the old
// Narrow-then-Eq sequence stored.
func (m OMem) NarrowChanged(o OMem) (OMem, bool) {
	changed := false
	r := pmap.CombineLeft(m.m, o.m, func(_ int32, a, b *oct.Oct) (*oct.Oct, bool) {
		n := a.Narrow(b)
		if !n.Eq(a) {
			changed = true
		}
		return n, false
	})
	if !changed {
		return m, false
	}
	return OMem{m: r}, true
}

func octNonBot(o *oct.Oct) bool { return !o.IsBottom() }

// LessEq reports the pointwise order.
func (m OMem) LessEq(o OMem) bool {
	return pmap.ForAll2(m.m, o.m, func(_ int32, a *oct.Oct, aok bool, b *oct.Oct, bok bool) bool {
		switch {
		case !aok:
			return true
		case !bok:
			return a.IsBottom()
		case a == b:
			return true
		default:
			return a.LessEq(b)
		}
	})
}

// Eq reports pointwise equality.
func (m OMem) Eq(o OMem) bool {
	return pmap.ForAll2(m.m, o.m, func(_ int32, a *oct.Oct, aok bool, b *oct.Oct, bok bool) bool {
		switch {
		case aok && bok:
			return a == b || a.Eq(b)
		case aok:
			return a.IsBottom()
		default:
			return b.IsBottom()
		}
	})
}

// RestrictSorted keeps only the packs in the sorted slice ps; membership is
// a single merge walk (Range yields ascending keys).
func (m OMem) RestrictSorted(ps []pack.ID) OMem {
	return m.restrictMerge(ps, true)
}

// RemoveSorted drops the packs in the sorted slice ps.
func (m OMem) RemoveSorted(ps []pack.ID) OMem {
	return m.restrictMerge(ps, false)
}

func (m OMem) restrictMerge(ps []pack.ID, keep bool) OMem {
	n := m.Len()
	if n == 0 {
		return OBot
	}
	keys := make([]int32, 0, n)
	vals := make([]*oct.Oct, 0, n)
	i := 0
	m.m.Range(func(k int32, o *oct.Oct) bool {
		for i < len(ps) && int32(ps[i]) < k {
			i++
		}
		if (i < len(ps) && int32(ps[i]) == k) == keep {
			keys = append(keys, k)
			vals = append(vals, o)
		}
		return true
	})
	if len(keys) == n {
		return m // nothing filtered: share the whole tree
	}
	return OMem{m: pmap.FromSorted(keys, vals)}
}

// String renders the state (pack IDs with their octagons).
func (m OMem) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	m.Range(func(p pack.ID, o *oct.Oct) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString("P" + strconv.Itoa(int(p)) + ":" + o.String())
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Package mem implements abstract memories S# = L# -> V# as persistent maps
// from abstract locations to abstract values (Section 2.3's domain family).
//
// Absent entries denote bottom, which is what makes the same transfer
// functions usable for both the dense analysis (whole memories) and the
// sparse analysis (partial memories restricted to D̂/Û): Lemma 1 guarantees
// the partial fixpoint agrees with the full one on the defined entries.
package mem

import (
	"strconv"
	"strings"

	"sparrow/internal/ir"
	"sparrow/internal/lattice/val"
	"sparrow/internal/pmap"
)

// Mem is an abstract memory. The zero value is the bottom memory (empty).
type Mem struct {
	m pmap.Map[val.Val]
}

// Bot is the bottom (empty) memory.
var Bot = Mem{}

// FromSorted returns the memory binding locs[i] to vals[i], built in one
// O(n) pass; locs must be strictly ascending. The slices are not retained.
func FromSorted(locs []ir.LocID, vals []val.Val) Mem {
	return Mem{m: pmap.FromSorted(locs, vals)}
}

// Get returns the value at l (bottom if absent).
func (m Mem) Get(l ir.LocID) val.Val {
	v, _ := m.m.Get(int32(l))
	return v
}

// Has reports whether l is bound.
func (m Mem) Has(l ir.LocID) bool {
	_, ok := m.m.Get(int32(l))
	return ok
}

// Set binds l to v (strong update). Setting bottom still records the entry,
// keeping domains stable across joins.
func (m Mem) Set(l ir.LocID, v val.Val) Mem {
	return Mem{m: m.m.Insert(int32(l), v)}
}

// WeakSet joins v into the current value of l (weak update). When l is
// already bound and v ⊑ its value, m is returned unchanged (physically) and
// nothing is allocated; an absent l is always bound, even to bottom, keeping
// domains stable across joins.
func (m Mem) WeakSet(l ir.LocID, v val.Val) Mem {
	return Mem{m: m.m.UpdateIdent(int32(l), func(old val.Val, ok bool) (val.Val, bool) {
		if !ok {
			return v, false
		}
		nv, ch := old.JoinChanged(v)
		return nv, !ch
	})}
}

// MayUninit reports whether the value at l carries the uninitialized-read
// marker (see val.UninitTop). Absent entries are bottom, not uninitialized:
// the entry transfer marks exactly the accessed locals, and a location the
// analysis never bound is dead rather than garbage.
func (m Mem) MayUninit(l ir.LocID) bool { return m.Get(l).MayUninit() }

// Len returns the number of bound locations.
func (m Mem) Len() int { return m.m.Len() }

// IsEmpty reports whether no location is bound.
func (m Mem) IsEmpty() bool { return m.m.IsEmpty() }

// Range calls f for each binding in ascending location order until f
// returns false.
func (m Mem) Range(f func(l ir.LocID, v val.Val) bool) {
	m.m.Range(func(k int32, v val.Val) bool { return f(ir.LocID(k), v) })
}

// Join returns the pointwise least upper bound. Join preserves identity:
// wherever o contributes nothing new, m's subtrees are returned as-is, so
// m.Join(o) with o ⊑ m returns m itself and allocates nothing.
func (m Mem) Join(o Mem) Mem {
	return Mem{m: pmap.MergeIdent(m.m, o.m, func(_ int32, a, b val.Val) (val.Val, bool) {
		nv, ch := a.JoinChanged(b)
		return nv, !ch
	})}
}

// Widen returns the pointwise widening m ∇ o, preserving identity like Join
// (b ⊑ a makes the per-location widening a no-op bit-for-bit).
func (m Mem) Widen(o Mem) Mem {
	return Mem{m: pmap.MergeIdent(m.m, o.m, func(_ int32, a, b val.Val) (val.Val, bool) {
		if b.LessEq(a) {
			return a, true
		}
		return a.Widen(b), false
	})}
}

// JoinChanged returns m.Join(o) together with whether the join differs
// semantically from m (absent entries are bottom, exactly as Eq treats
// them). An unchanged join returns m itself — in particular, explicit-bottom
// entries of o absent from m are NOT added, matching the keep-the-old-map
// behaviour of the fixpoint loops this replaces; a changed join carries the
// full Merge contents, explicit bottoms included.
func (m Mem) JoinChanged(o Mem) (Mem, bool) {
	r, ch := pmap.MergeChanged(m.m, o.m, func(_ int32, a, b val.Val) (val.Val, bool, bool) {
		nv, changed := a.JoinChanged(b)
		return nv, !changed, changed
	}, valNonBot)
	if !ch {
		return m, false
	}
	return Mem{m: r}, true
}

// WidenChanged returns m.Widen(o) together with whether the widened result
// differs semantically from o. It is meant for the ascending loops, which
// call old.WidenChanged(joined) with joined = old.Join(new) — so o's domain
// covers m's — and report the flag as an effective widening. When nothing
// extrapolates, o itself is returned.
func (m Mem) WidenChanged(o Mem) (Mem, bool) {
	r, ch := pmap.MergeChanged(o.m, m.m, func(_ int32, a, b val.Val) (val.Val, bool, bool) {
		nv, changed := b.WidenChanged(a)
		return nv, !changed, changed
	}, valNonBot)
	if !ch {
		return o, false
	}
	return Mem{m: r}, true
}

// Narrow returns the pointwise narrowing m Δ o. Locations absent from o
// narrow towards bottom only in their widened (infinite) bounds, so m's
// binding is kept. Narrow preserves identity: when no binding narrows, m is
// returned as-is (the old per-key Insert rebuild shared nothing).
func (m Mem) Narrow(o Mem) Mem {
	r, _ := m.NarrowChanged(o)
	return r
}

// NarrowChanged returns m.Narrow(o) together with whether any binding
// narrowed; the unchanged case returns m itself.
func (m Mem) NarrowChanged(o Mem) (Mem, bool) {
	changed := false
	r := pmap.CombineLeft(m.m, o.m, func(_ int32, a, b val.Val) (val.Val, bool) {
		nv, ch := a.NarrowChanged(b)
		if ch {
			changed = true
		}
		return nv, !ch
	})
	if !changed {
		return m, false
	}
	return Mem{m: r}, true
}

// Same reports whether m and o are physically the same tree (O(1)); it
// implies Eq. Tests of the identity-preservation contract use it.
func (m Mem) Same(o Mem) bool { return pmap.Same(m.m, o.m) }

func valNonBot(v val.Val) bool { return !v.IsBot() }

// LessEq reports the pointwise order m ⊑ o.
func (m Mem) LessEq(o Mem) bool {
	return pmap.ForAll2(m.m, o.m, func(_ int32, a val.Val, aok bool, b val.Val, bok bool) bool {
		if !aok {
			return true // absent = bottom ⊑ anything
		}
		if !bok {
			return a.IsBot()
		}
		return a.LessEq(b)
	})
}

// Eq reports pointwise equality (absent entries equal bottom).
func (m Mem) Eq(o Mem) bool {
	return pmap.ForAll2(m.m, o.m, func(_ int32, a val.Val, aok bool, b val.Val, bok bool) bool {
		switch {
		case aok && bok:
			return a.Eq(b)
		case aok:
			return a.IsBot()
		default:
			return b.IsBot()
		}
	})
}

// Restrict returns the memory keeping only locations for which keep returns
// true. The kept entries come out of Range already sorted, so the result is
// rebuilt in one O(n) FromSorted pass instead of n O(log n) insertions —
// Restrict sits on the localization hot path at every call boundary.
func (m Mem) Restrict(keep func(ir.LocID) bool) Mem {
	n := m.Len()
	if n == 0 {
		return Bot
	}
	keys := make([]int32, 0, n)
	vals := make([]val.Val, 0, n)
	m.m.Range(func(k int32, v val.Val) bool {
		if keep(ir.LocID(k)) {
			keys = append(keys, k)
			vals = append(vals, v)
		}
		return true
	})
	if len(keys) == n {
		return m // nothing filtered: share the whole tree
	}
	return Mem{m: pmap.FromSorted(keys, vals)}
}

// RestrictSet returns the memory keeping only locations in set.
func (m Mem) RestrictSet(set map[ir.LocID]bool) Mem {
	return m.Restrict(func(l ir.LocID) bool { return set[l] })
}

// RemoveSet returns the memory without the locations in set.
func (m Mem) RemoveSet(set map[ir.LocID]bool) Mem {
	return m.Restrict(func(l ir.LocID) bool { return !set[l] })
}

// RestrictSorted keeps only the locations in the sorted slice locs. The
// entries come out of Range in ascending key order, so membership is a
// single merge walk over locs instead of a hash probe per entry — this is
// the localization path of the dense solvers over the pre-analysis's
// interned accessed sets.
func (m Mem) RestrictSorted(locs []ir.LocID) Mem {
	return m.restrictMerge(locs, true)
}

// RemoveSorted drops the locations in the sorted slice locs.
func (m Mem) RemoveSorted(locs []ir.LocID) Mem {
	return m.restrictMerge(locs, false)
}

func (m Mem) restrictMerge(locs []ir.LocID, keep bool) Mem {
	n := m.Len()
	if n == 0 {
		return Bot
	}
	keys := make([]int32, 0, n)
	vals := make([]val.Val, 0, n)
	i := 0
	m.m.Range(func(k int32, v val.Val) bool {
		for i < len(locs) && int32(locs[i]) < k {
			i++
		}
		if (i < len(locs) && int32(locs[i]) == k) == keep {
			keys = append(keys, k)
			vals = append(vals, v)
		}
		return true
	})
	if len(keys) == n {
		return m // nothing filtered: share the whole tree
	}
	return Mem{m: pmap.FromSorted(keys, vals)}
}

// String renders the memory with numeric location IDs (tests use
// Program.Locs for names).
func (m Mem) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	m.Range(func(l ir.LocID, v val.Val) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(int(l)) + " -> " + v.String())
		return true
	})
	b.WriteByte('}')
	return b.String()
}

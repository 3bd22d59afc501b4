// Package val implements the abstract value domain V# of the non-relational
// analysis (Section 3.1): a product of
//
//   - an abstract integer (the interval domain),
//   - an abstract pointer: a finite map from abstract locations to regions,
//     where a region tracks the offset and size intervals of the pointed-to
//     block (the paper's array abstraction by ⟨base, offset, size⟩ tuples),
//   - an abstract function set for function pointers.
//
// Pointer maps and function sets are kept as sorted immutable slices behind
// one shared pointer, nil for pure numbers; all operations return new values.
package val

import (
	"fmt"
	"sort"
	"strings"

	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
)

// Region is the offset/size abstraction of a pointed-to block: the pointer
// aims Off cells into a block of Sz cells. Buffer-overrun checking compares
// Off against Sz.
type Region struct {
	Off itv.Itv
	Sz  itv.Itv
}

// Join returns the pointwise join of regions.
func (r Region) Join(o Region) Region {
	return Region{Off: r.Off.Join(o.Off), Sz: r.Sz.Join(o.Sz)}
}

// Widen returns the pointwise widening of regions.
func (r Region) Widen(o Region) Region {
	return Region{Off: r.Off.Widen(o.Off), Sz: r.Sz.Widen(o.Sz)}
}

// LessEq reports pointwise ordering.
func (r Region) LessEq(o Region) bool {
	return r.Off.LessEq(o.Off) && r.Sz.LessEq(o.Sz)
}

// Eq reports equality.
func (r Region) Eq(o Region) bool { return r.Off.Eq(o.Off) && r.Sz.Eq(o.Sz) }

// PtrEntry is one points-to target with its region.
type PtrEntry struct {
	Loc ir.LocID
	R   Region
}

// Val is an abstract value. The zero value is bottom.
//
// A Val is 40 bytes: the interval, one pointer to the immutable reference
// components, and the uninit bit. Values are copied by value through the
// transfer functions, the joins and the memories, and most of them are pure
// numbers, so the slices live behind the pointer (nil when both are empty).
// A join or widening whose reference components equal an operand's returns
// that operand's pointer, so the fixpoint's joins copy nothing once the
// points-to sets have stopped growing, and later comparisons of the result
// take the pointer-equality shortcut.
type Val struct {
	I   itv.Itv
	ref *refs
	// uninit marks values that may stem from an uninitialized read: entry
	// transfers seed accessed locals with UninitTop, the bit rides through
	// copies and joins (it is a may-property), and strong updates kill it.
	// Arithmetic drops it — a computed value is no longer a *read* of the
	// uninitialized cell, and the uninit checker flags the read itself.
	uninit bool
}

// refs holds a value's points-to targets and function targets. It is never
// mutated once built and at least one of the slices is non-empty.
type refs struct {
	ptr []PtrEntry  // sorted by Loc, no duplicates
	fns []ir.ProcID // sorted, no duplicates
}

// mkRefs wraps the two components, returning nil when both are empty.
func mkRefs(ptr []PtrEntry, fns []ir.ProcID) *refs {
	if len(ptr) == 0 && len(fns) == 0 {
		return nil
	}
	return &refs{ptr: ptr, fns: fns}
}

// mergeRefs merges two non-nil reference components into a fresh one,
// combining the regions of common points-to targets with comb.
func mergeRefs(a, b *refs, comb func(Region, Region) Region) *refs {
	return &refs{ptr: mergePtr(a.ptr, b.ptr, comb), fns: mergeFns(a.fns, b.fns)}
}

// refsLessEq reports a ⊑ b on reference components: every points-to target
// of a is one of b's with a region ⊑ b's, and a's functions are among b's.
func refsLessEq(a, b *refs) bool {
	switch {
	case a == nil || a == b:
		return true
	case b == nil:
		return false
	}
	j := 0
	for _, e := range a.ptr {
		for j < len(b.ptr) && b.ptr[j].Loc < e.Loc {
			j++
		}
		if j >= len(b.ptr) || b.ptr[j].Loc != e.Loc || !e.R.LessEq(b.ptr[j].R) {
			return false
		}
	}
	return fnsSubset(a.fns, b.fns)
}

// joinRefs returns the reference components of a join. When one side covers
// the other (refsLessEq), the merge would equal it entry for entry — the
// interval join of a region with one below it is that region, bit for bit —
// so that side is returned itself; only when neither covers is a merged
// copy built.
func joinRefs(a, b *refs) *refs {
	switch {
	case refsLessEq(b, a):
		return a
	case refsLessEq(a, b):
		return b
	}
	return mergeRefs(a, b, Region.Join)
}

// widenRefs returns the reference components of a ∇ b: b itself when the
// widening keeps them (every target of a is one of b's whose region b's
// does not widen past, and a's functions are among b's), a when b is nil,
// and otherwise a merged copy.
func widenRefs(a, b *refs) *refs {
	switch {
	case a == nil || a == b:
		return b
	case b == nil:
		return a
	case widenPtrKeeps(a.ptr, b.ptr) && fnsSubset(a.fns, b.fns):
		return b
	}
	return mergeRefs(a, b, Region.Widen)
}

// Bot is the bottom value.
var Bot = Val{}

// TopInt is the value with a top interval and no pointers (unknown input).
var TopInt = Val{I: itv.Top}

// FromItv returns a purely numeric value.
func FromItv(i itv.Itv) Val { return Val{I: i} }

// Interned values of the hottest constants; Const returns these so repeated
// literals share one bitwise representation (see itv.Zero/itv.One).
var (
	zeroVal = Val{I: itv.Zero}
	oneVal  = Val{I: itv.One}
)

// Const returns the singleton numeric value n.
func Const(n int64) Val {
	switch n {
	case 0:
		return zeroVal
	case 1:
		return oneVal
	}
	return Val{I: itv.Single(n)}
}

// FromPtr returns a pointer to loc with the given region.
func FromPtr(loc ir.LocID, r Region) Val {
	return Val{ref: &refs{ptr: []PtrEntry{{Loc: loc, R: r}}}}
}

// FromFunc returns a function value.
func FromFunc(f ir.ProcID) Val { return Val{ref: &refs{fns: []ir.ProcID{f}}} }

// UninitTop is the entry marker of a possibly-uninitialized cell: an
// arbitrary integer (the concrete cell holds garbage) carrying the uninit
// bit. A top interval — not bottom — keeps conditions over uninitialized
// variables maybe-true/maybe-false, so reachability matches the concrete
// executions the interpreter oracle runs.
func UninitTop() Val { return Val{I: itv.Top, uninit: true} }

// MayUninit reports whether the value may stem from an uninitialized read.
func (v Val) MayUninit() bool { return v.uninit }

// Itv returns the numeric component.
func (v Val) Itv() itv.Itv { return v.I }

// Ptr returns the points-to entries (callers must not mutate).
func (v Val) Ptr() []PtrEntry {
	if v.ref == nil {
		return nil
	}
	return v.ref.ptr
}

// Fns returns the function targets (callers must not mutate).
func (v Val) Fns() []ir.ProcID {
	if v.ref == nil {
		return nil
	}
	return v.ref.fns
}

// HasPtr reports whether the value may be a pointer.
func (v Val) HasPtr() bool { return v.ref != nil && len(v.ref.ptr) > 0 }

// IsBot reports whether v is bottom (no integer, no pointers, no functions,
// no uninit mark — a marked value is observable by the uninit checker and
// must survive joins and memory merges).
func (v Val) IsBot() bool {
	return v.I.IsBot() && v.ref == nil && !v.uninit
}

// WithItv returns v with the numeric component replaced.
func (v Val) WithItv(i itv.Itv) Val { return Val{I: i, ref: v.ref, uninit: v.uninit} }

// OnlyPtr returns v with only its pointer (and function) components.
func (v Val) OnlyPtr() Val { return Val{ref: v.ref} }

// MapPtr returns v with each points-to entry transformed by f; entries for
// which f reports false are dropped.
func (v Val) MapPtr(f func(PtrEntry) (PtrEntry, bool)) Val {
	if !v.HasPtr() {
		return v
	}
	out := make([]PtrEntry, 0, len(v.ref.ptr))
	for _, e := range v.ref.ptr {
		if ne, ok := f(e); ok {
			out = append(out, ne)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Loc < out[j].Loc })
	return Val{I: v.I, ref: mkRefs(dedupPtr(out), v.ref.fns), uninit: v.uninit}
}

func dedupPtr(s []PtrEntry) []PtrEntry {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, e := range s[1:] {
		last := &out[len(out)-1]
		if e.Loc == last.Loc {
			last.R = last.R.Join(e.R)
		} else {
			out = append(out, e)
		}
	}
	return out
}

// mergePtr merges two sorted entry slices with the given region combiner.
func mergePtr(a, b []PtrEntry, comb func(Region, Region) Region) []PtrEntry {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]PtrEntry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Loc < b[j].Loc:
			out = append(out, a[i])
			i++
		case a[i].Loc > b[j].Loc:
			out = append(out, b[j])
			j++
		default:
			out = append(out, PtrEntry{Loc: a[i].Loc, R: comb(a[i].R, b[j].R)})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func mergeFns(a, b []ir.ProcID) []ir.ProcID {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]ir.ProcID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Join returns the least upper bound. When one operand's reference
// components cover the other's, the result shares them (see joinRefs).
func (v Val) Join(w Val) Val {
	return Val{
		I:      v.I.Join(w.I),
		ref:    joinRefs(v.ref, w.ref),
		uninit: v.uninit || w.uninit,
	}
}

// Widen returns the widening v ∇ w. Points-to sets and function sets are
// finite (bounded by the program's locations), so set union suffices there;
// the numeric parts widen. Regions of common targets widen pointwise. When
// that changes nothing relative to w's reference components, the result
// shares them (see widenRefs).
func (v Val) Widen(w Val) Val {
	return Val{
		I:      v.I.Widen(w.I),
		ref:    widenRefs(v.ref, w.ref),
		uninit: v.uninit || w.uninit,
	}
}

// Narrow returns the narrowing v Δ w on the numeric component; pointer,
// function, and uninit components keep v's (they were not widened past w).
func (v Val) Narrow(w Val) Val {
	return Val{I: v.I.Narrow(w.I), ref: v.ref, uninit: v.uninit}
}

// JoinChanged returns v.Join(w) together with whether the join differs from
// v — equivalently, whether w ⋢ v, since Join(v,w) = v exactly when w ⊑ v.
// An unchanged join returns v itself and allocates nothing; the fixpoint
// loops use this in place of the Join-then-Eq pair.
func (v Val) JoinChanged(w Val) (Val, bool) {
	if w.LessEq(v) {
		return v, false
	}
	return v.Join(w), true
}

// WidenChanged returns v.Widen(w) together with whether the widened value
// differs from w (the ascended iterate: callers pass w = v ⊔ new, so the
// flag reports an *effective* widening — one that extrapolated past the
// plain join). The widening shares w's reference components whenever it
// keeps them, so the flag is a comparison of the numeric part, the shared
// pointer and the uninit bit; when nothing extrapolates, w itself is
// returned and nothing is allocated.
func (v Val) WidenChanged(w Val) (Val, bool) {
	u := v.Widen(w)
	if u.I.Eq(w.I) && u.ref == w.ref && u.uninit == w.uninit {
		return w, false
	}
	return u, true
}

// widenPtrKeeps reports whether mergePtr(a, b, Region.Widen) equals b
// element-wise, i.e. the widening of the pointer components changes nothing
// relative to b: every entry of a shares its location with b and widening
// its region past b's is a no-op.
func widenPtrKeeps(a, b []PtrEntry) bool {
	j := 0
	for i := range a {
		for j < len(b) && b[j].Loc < a[i].Loc {
			j++
		}
		if j >= len(b) || b[j].Loc != a[i].Loc {
			return false // an a-only entry would survive into the merge
		}
		if !a[i].R.Widen(b[j].R).Eq(b[j].R) {
			return false
		}
		j++
	}
	return true
}

// fnsSubset reports a ⊆ b over sorted slices.
func fnsSubset(a, b []ir.ProcID) bool {
	j := 0
	for _, f := range a {
		for j < len(b) && b[j] < f {
			j++
		}
		if j >= len(b) || b[j] != f {
			return false
		}
		j++
	}
	return true
}

// NarrowChanged returns v.Narrow(w) together with whether it differs from v.
// Only the numeric component narrows, so the check is a bound comparison and
// the unchanged case returns v itself; either way nothing is allocated.
func (v Val) NarrowChanged(w Val) (Val, bool) {
	ni := v.I.Narrow(w.I)
	if ni.Eq(v.I) {
		return v, false
	}
	return Val{I: ni, ref: v.ref, uninit: v.uninit}, true
}

// LessEq reports the lattice order.
func (v Val) LessEq(w Val) bool {
	return v.I.LessEq(w.I) && (!v.uninit || w.uninit) && refsLessEq(v.ref, w.ref)
}

// Eq reports equality.
func (v Val) Eq(w Val) bool {
	if !v.I.Eq(w.I) || v.uninit != w.uninit {
		return false
	}
	if v.ref == w.ref {
		return true
	}
	vp, wp, vf, wf := v.Ptr(), w.Ptr(), v.Fns(), w.Fns()
	if len(vp) != len(wp) || len(vf) != len(wf) {
		return false
	}
	for i := range vp {
		if vp[i].Loc != wp[i].Loc || !vp[i].R.Eq(wp[i].R) {
			return false
		}
	}
	for i := range vf {
		if vf[i] != wf[i] {
			return false
		}
	}
	return true
}

// String renders the value.
func (v Val) String() string {
	if v.IsBot() {
		return "bot"
	}
	var parts []string
	if !v.I.IsBot() {
		parts = append(parts, v.I.String())
	}
	for _, e := range v.Ptr() {
		parts = append(parts, fmt.Sprintf("&%d%s/%s", e.Loc, e.R.Off, e.R.Sz))
	}
	for _, f := range v.Fns() {
		parts = append(parts, fmt.Sprintf("fn%d", f))
	}
	if v.uninit {
		parts = append(parts, "uninit")
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

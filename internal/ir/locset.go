// Sorted dense-ID location sets. The analyses' access sets (D̂/Û, procedure
// summaries, localization sets) are sets of LocIDs that are built once and
// then only iterated, intersected, and membership-tested on the solver hot
// paths. Representing them as sorted []LocID slices keeps iteration a linear
// scan over contiguous int32s and membership a binary search — no hashing,
// no per-entry allocation — which is what the CSR-indexed def-use graph and
// slice-based localization are built from.
package ir

import "slices"

// SortLocs sorts s ascending in place.
func SortLocs(s []LocID) {
	slices.Sort(s)
}

// DedupLocs sorts s and removes duplicates in place, returning the
// shortened slice.
func DedupLocs(s []LocID) []LocID {
	if len(s) < 2 {
		return s
	}
	SortLocs(s)
	out := s[:1]
	for _, l := range s[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// LocsContain reports whether sorted set s contains l (binary search).
func LocsContain(s []LocID, l LocID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == l
}

// MergeLocs appends the sorted union of a and b to dst and returns it
// (dst's existing contents are kept; pass dst[:0] to reuse a buffer).
func MergeLocs(dst, a, b []LocID) []LocID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// EqualLocs reports element-wise equality of two sorted sets.
func EqualLocs(a, b []LocID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LocSetInterner deduplicates sorted LocID slices: identical sets share one
// canonical backing slice, so the per-procedure summaries and per-node access
// sets of repetitive programs (many call sites of the same callee, many
// points with the same linkage set) cost one allocation instead of one per
// holder. Interned slices must be treated as immutable. The canonical slice
// for a given content is the first one interned, so interning the same
// sequence of sets always yields the same slices — the table is
// deterministic across identical runs.
type LocSetInterner struct {
	buckets map[uint64][][]LocID
}

// NewLocSetInterner returns an empty interner.
func NewLocSetInterner() *LocSetInterner {
	return &LocSetInterner{buckets: make(map[uint64][][]LocID)}
}

// Intern returns the canonical slice with s's contents, registering s (after
// cloning to exact capacity) if its contents are new. s must be sorted.
func (t *LocSetInterner) Intern(s []LocID) []LocID {
	if len(s) == 0 {
		return nil
	}
	// FNV-1a over the IDs.
	h := uint64(14695981039346656037)
	for _, l := range s {
		h ^= uint64(uint32(l))
		h *= 1099511628211
	}
	for _, c := range t.buckets[h] {
		if EqualLocs(c, s) {
			return c
		}
	}
	c := make([]LocID, len(s))
	copy(c, s)
	t.buckets[h] = append(t.buckets[h], c)
	return c
}

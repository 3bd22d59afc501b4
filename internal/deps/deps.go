// Package deps provides interchangeable representations of the
// data-dependency relation ↝ ⊆ C × C × L# — the Section 5 comparison
// between a naive set-based store and a BDD-based store (the paper's
// BuDDy usage: "for vim60, set-based representation required more than
// 24 GB of memory but the BDD implementation just required 1 GB").
package deps

import (
	"math/bits"

	"sparrow/internal/bdd"
	"sparrow/internal/dug"
	"sparrow/internal/ir"
)

// Store is a representation of the dependency relation.
type Store interface {
	// Add inserts the triple ⟨from, l, to⟩.
	Add(from dug.NodeID, l ir.LocID, to dug.NodeID)
	// Contains reports membership.
	Contains(from dug.NodeID, l ir.LocID, to dug.NodeID) bool
	// Triples returns the number of stored triples.
	Triples() int
	// EstimatedBytes estimates the memory footprint of the representation
	// (benchmarks additionally measure live heap directly).
	EstimatedBytes() int
}

// ---------- set-based store ----------

type pair struct{ from, to dug.NodeID }

// SetStore is the naive representation the paper describes: a map
// C × C → 2^L.
type SetStore struct {
	m map[pair]map[ir.LocID]bool
	n int
}

// NewSetStore returns an empty set-based store.
func NewSetStore() *SetStore {
	return &SetStore{m: make(map[pair]map[ir.LocID]bool)}
}

// Add implements Store.
func (s *SetStore) Add(from dug.NodeID, l ir.LocID, to dug.NodeID) {
	k := pair{from, to}
	inner := s.m[k]
	if inner == nil {
		inner = map[ir.LocID]bool{}
		s.m[k] = inner
	}
	if !inner[l] {
		inner[l] = true
		s.n++
	}
}

// Contains implements Store.
func (s *SetStore) Contains(from dug.NodeID, l ir.LocID, to dug.NodeID) bool {
	return s.m[pair{from, to}][l]
}

// Triples implements Store.
func (s *SetStore) Triples() int { return s.n }

// EstimatedBytes implements Store: Go map overhead is roughly 48 bytes per
// outer entry (key+value+bucket share) and 16 per inner entry.
func (s *SetStore) EstimatedBytes() int {
	return len(s.m)*48 + s.n*16
}

// ---------- BDD-based store ----------

// BDDStore encodes each triple as a conjunction of variable bits. The
// variable order interleaves the from/to node bits (dependency edges are
// local: endpoints share their high bits, which interleaving turns into
// shared prefixes) followed by the location bits (edges between the same
// points on many locations share everything but the suffix). This ordering
// measured smallest across the orderings tried on the benchmark suite.
type BDDStore struct {
	b        *bdd.BDD
	rel      bdd.Ref
	fromBits int
	toBits   int
	locBits  int
	n        int
	// scratch buffers to avoid allocation per Add
	vars []int
	vals []bool
}

// NewBDDStore returns an empty BDD store sized for the given node and
// location counts.
func NewBDDStore(numNodes, numLocs int) *BDDStore {
	fb := bitsFor(numNodes)
	lb := bitsFor(numLocs)
	s := &BDDStore{
		b:        bdd.New(fb + fb + lb),
		rel:      bdd.False,
		fromBits: fb,
		toBits:   fb,
		locBits:  lb,
	}
	total := fb + fb + lb
	s.vars = make([]int, total)
	s.vals = make([]bool, total)
	for i := range s.vars {
		s.vars[i] = i
	}
	return s
}

func bitsFor(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

func (s *BDDStore) encode(from dug.NodeID, l ir.LocID, to dug.NodeID) {
	i := 0
	for b := s.fromBits - 1; b >= 0; b-- {
		s.vals[i] = from&(1<<b) != 0
		i++
		s.vals[i] = to&(1<<b) != 0
		i++
	}
	for b := s.locBits - 1; b >= 0; b-- {
		s.vals[i] = l&(1<<b) != 0
		i++
	}
}

// Add implements Store.
func (s *BDDStore) Add(from dug.NodeID, l ir.LocID, to dug.NodeID) {
	s.encode(from, l, to)
	cube := s.b.Cube(s.vars, s.vals)
	nrel := s.b.Or(s.rel, cube)
	if nrel != s.rel {
		s.rel = nrel
		s.n++
	}
}

// AddProduct inserts every triple ⟨f, l, t⟩ with f ∈ from, l ∈ locs and
// t ∈ to. It conjoins one predicate per set, each the disjunction of that
// field's cubes, so a block of |from|·|locs|·|to| triples costs
// |from| + |locs| + |to| cubes instead of as many insertions as triples.
func (s *BDDStore) AddProduct(from []dug.NodeID, locs []ir.LocID, to []dug.NodeID) {
	f := field(s, from, func(b int) int { return 2 * (s.fromBits - 1 - b) }, s.fromBits)
	t := field(s, to, func(b int) int { return 2*(s.fromBits-1-b) + 1 }, s.toBits)
	l := field(s, locs, func(b int) int { return 2*s.fromBits + s.locBits - 1 - b }, s.locBits)
	block := s.b.And(f, s.b.And(l, t))
	// Every variable is a bit of the encoding, so each satisfying
	// assignment of the block's new part is one new triple.
	s.n += int(s.b.SatCount(s.b.Diff(block, s.rel)))
	s.rel = s.b.Or(s.rel, block)
}

// field returns the predicate "this field of the encoding is one of
// values": the disjunction of the cubes fixing the field's bits, where
// varOf(b) is the variable of bit b (0 the least significant).
func field[T dug.NodeID | ir.LocID](s *BDDStore, values []T, varOf func(b int) int, bits int) bdd.Ref {
	vars, vals := make([]int, bits), make([]bool, bits)
	for k := range vars {
		vars[k] = varOf(bits - 1 - k)
	}
	r := bdd.False
	for _, v := range values {
		for k := range vals {
			vals[k] = v&(1<<(bits-1-k)) != 0
		}
		r = s.b.Or(r, s.b.Cube(vars, vals))
	}
	return r
}

// Contains implements Store.
func (s *BDDStore) Contains(from dug.NodeID, l ir.LocID, to dug.NodeID) bool {
	s.encode(from, l, to)
	return s.b.Contains(s.rel, s.vals)
}

// Triples implements Store.
func (s *BDDStore) Triples() int { return s.n }

// NodeCount returns the number of BDD nodes of the relation.
func (s *BDDStore) NodeCount() int { return s.b.NodeCount(s.rel) }

// SatCount returns the relation size as counted by the BDD (sanity check
// against Triples; equal when node/loc counts are exact powers of two and
// every encodable triple is a real one — in general it counts encoded
// assignments, i.e. exactly the added triples).
func (s *BDDStore) SatCount() float64 { return s.b.SatCount(s.rel) }

// EstimatedBytes implements Store: ~16 bytes per arena node plus ~40 per
// unique-table entry for the live nodes of the relation.
func (s *BDDStore) EstimatedBytes() int {
	return s.b.NodeCount(s.rel) * 56
}

// ---------- loading from a def-use graph ----------

// FromGraph stores every dependency triple of g into store and returns it.
func FromGraph(g *dug.Graph, store Store) Store {
	g.Range(func(from dug.NodeID, l ir.LocID, to dug.NodeID) bool {
		store.Add(from, l, to)
		return true
	})
	return store
}

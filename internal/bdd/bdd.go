// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// in the style of BuDDy, which the paper uses to store the data-dependency
// relation ⟨c1, c2, l⟩ compactly (Section 5: set-based storage needed 24 GB
// where BDDs needed 1 GB on vim60).
//
// Nodes live in one arena with a unique table (hash-consing), so structural
// sharing is automatic; apply operations (AND/OR/DIFF) are memoized.
// Variables are identified by their order index; callers encode domain
// tuples into variable bits (see package deps).
package bdd

import "fmt"

// Ref is a reference to a BDD node. The terminals are False (0) and True (1).
type Ref int32

// Terminal references.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level     int32 // variable index; terminals use a sentinel beyond nvars
	low, high Ref
}

type applyKey struct {
	op   uint8
	f, g Ref
}

// BDD is a node arena with hash-consing and operation memoization. It is
// not safe for concurrent use.
type BDD struct {
	nvars  int32
	nodes  []node
	unique map[node]Ref
	memo   map[applyKey]Ref
}

// New returns a manager for nvars boolean variables (order = index order).
func New(nvars int) *BDD {
	b := &BDD{
		nvars:  int32(nvars),
		unique: make(map[node]Ref),
		memo:   make(map[applyKey]Ref),
	}
	// Terminals occupy slots 0 and 1 with an out-of-range level so that
	// level comparisons treat them as "below" every variable.
	b.nodes = append(b.nodes,
		node{level: int32(nvars), low: -1, high: -1},
		node{level: int32(nvars), low: -1, high: -1},
	)
	return b
}

func (b *BDD) level(f Ref) int32 { return b.nodes[f].level }

// mk returns the canonical node (level, low, high).
func (b *BDD) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	n := node{level: level, low: low, high: high}
	if r, ok := b.unique[n]; ok {
		return r
	}
	r := Ref(len(b.nodes))
	b.nodes = append(b.nodes, n)
	b.unique[n] = r
	return r
}

// Var returns the function "variable i".
func (b *BDD) Var(i int) Ref {
	if i < 0 || int32(i) >= b.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", i))
	}
	return b.mk(int32(i), False, True)
}

// NVar returns the function "not variable i".
func (b *BDD) NVar(i int) Ref {
	if i < 0 || int32(i) >= b.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", i))
	}
	return b.mk(int32(i), True, False)
}

// Operation codes for apply.
const (
	opAnd uint8 = iota
	opOr
	opDiff
)

// And returns f ∧ g.
func (b *BDD) And(f, g Ref) Ref { return b.apply(opAnd, f, g) }

// Or returns f ∨ g.
func (b *BDD) Or(f, g Ref) Ref { return b.apply(opOr, f, g) }

// Diff returns f ∧ ¬g.
func (b *BDD) Diff(f, g Ref) Ref { return b.apply(opDiff, f, g) }

// Not returns ¬f.
func (b *BDD) Not(f Ref) Ref { return b.apply(opDiff, True, f) }

func (b *BDD) apply(op uint8, f, g Ref) Ref {
	// Terminal cases.
	switch op {
	case opAnd:
		switch {
		case f == False || g == False:
			return False
		case f == True:
			return g
		case g == True:
			return f
		case f == g:
			return f
		}
		if f > g {
			f, g = g, f // AND is commutative: canonicalize for the memo
		}
	case opOr:
		switch {
		case f == True || g == True:
			return True
		case f == False:
			return g
		case g == False:
			return f
		case f == g:
			return f
		}
		if f > g {
			f, g = g, f
		}
	case opDiff:
		switch {
		case f == False || g == True:
			return False
		case g == False:
			return f
		case f == g:
			return False
		}
	}
	key := applyKey{op: op, f: f, g: g}
	if r, ok := b.memo[key]; ok {
		return r
	}
	lf, lg := b.level(f), b.level(g)
	var lvl int32
	var f0, f1, g0, g1 Ref
	switch {
	case lf == lg:
		lvl = lf
		f0, f1 = b.nodes[f].low, b.nodes[f].high
		g0, g1 = b.nodes[g].low, b.nodes[g].high
	case lf < lg:
		lvl = lf
		f0, f1 = b.nodes[f].low, b.nodes[f].high
		g0, g1 = g, g
	default:
		lvl = lg
		f0, f1 = f, f
		g0, g1 = b.nodes[g].low, b.nodes[g].high
	}
	r := b.mk(lvl, b.apply(op, f0, g0), b.apply(op, f1, g1))
	b.memo[key] = r
	return r
}

// Cube returns the conjunction of the given literals: vars[i] must hold the
// variable index and bits[i] its polarity. Literals must be in increasing
// variable order for efficiency but any order is accepted.
func (b *BDD) Cube(vars []int, bits []bool) Ref {
	r := True
	for i := len(vars) - 1; i >= 0; i-- {
		var v Ref
		if bits[i] {
			v = b.Var(vars[i])
		} else {
			v = b.NVar(vars[i])
		}
		r = b.And(v, r)
	}
	return r
}

// NodeCount returns the number of distinct nodes reachable from f
// (excluding terminals), the BDD size measure.
func (b *BDD) NodeCount(f Ref) int {
	seen := map[Ref]bool{}
	var walk func(Ref)
	walk = func(r Ref) {
		if r <= True || seen[r] {
			return
		}
		seen[r] = true
		walk(b.nodes[r].low)
		walk(b.nodes[r].high)
	}
	walk(f)
	return len(seen)
}

// SatCount returns the number of satisfying assignments of f over all
// variables (as float64: counts can exceed uint64 for wide domains).
func (b *BDD) SatCount(f Ref) float64 {
	memo := map[Ref]float64{}
	var count func(Ref) float64
	count = func(r Ref) float64 {
		if r == False {
			return 0
		}
		if r == True {
			return 1
		}
		if c, ok := memo[r]; ok {
			return c
		}
		n := b.nodes[r]
		cl := count(n.low) * pow2(b.level(n.low)-n.level-1)
		ch := count(n.high) * pow2(b.level(n.high)-n.level-1)
		c := cl + ch
		memo[r] = c
		return c
	}
	return count(f) * pow2(b.level(f))
}

func pow2(n int32) float64 {
	out := 1.0
	for i := int32(0); i < n; i++ {
		out *= 2
	}
	return out
}

// AllSat enumerates the satisfying assignments of f. Each assignment is
// presented as a slice indexed by variable with values 0, 1, or -1 for
// "don't care" (the callback must not retain the slice). Enumeration stops
// when the callback returns false.
func (b *BDD) AllSat(f Ref, visit func(assign []int8) bool) {
	assign := make([]int8, b.nvars)
	for i := range assign {
		assign[i] = -1
	}
	var walk func(Ref) bool
	walk = func(r Ref) bool {
		if r == False {
			return true
		}
		if r == True {
			return visit(assign)
		}
		n := b.nodes[r]
		assign[n.level] = 0
		if !walk(n.low) {
			return false
		}
		assign[n.level] = 1
		if !walk(n.high) {
			return false
		}
		assign[n.level] = -1
		return true
	}
	walk(f)
}

// Contains reports whether the assignment (a full vector of variable
// values) satisfies f.
func (b *BDD) Contains(f Ref, bits []bool) bool {
	r := f
	for r > True {
		n := b.nodes[r]
		if bits[n.level] {
			r = n.high
		} else {
			r = n.low
		}
	}
	return r == True
}

// Package ssa computes dominator trees and dominance frontiers of
// per-procedure control-flow graphs, and places phi nodes per abstract
// location — the machinery behind data-dependency generation (Section 5:
// "We use the standard SSA algorithm to generate data dependencies").
//
// Dominators use the Cooper–Harvey–Kennedy iterative algorithm over reverse
// postorder, which is simple and fast on the shallow CFGs the frontend
// produces.
package ssa

import (
	"sparrow/internal/ir"
)

// Dom holds the dominance information of one procedure's CFG. Points are
// addressed by their index in Order (reverse postorder); unreachable points
// are absent. A Dom is reusable: Compute overwrites it, recycling its
// buffers, so one Dom serves every procedure of a program in turn.
type Dom struct {
	Order []ir.PointID // reverse postorder, Order[0] == entry
	// Idom[i] is the RPO index of the immediate dominator of Order[i];
	// Idom[0] == 0 (the entry dominates itself).
	Idom []int32
	// Index i's predecessors, dominator-tree children and dominance
	// frontier are pred/child/front[off[i]:off[i+1]] of the matching offset
	// table (RPO indices).
	predOff, pred   []int32
	childOff, child []int32
	frontOff, front []int32
	seen            []int32
}

// Compute fills d for the procedure whose reverse postorder is order (the
// entry first). index maps each point of order to its position plus one and
// every other point of prog to 0.
func (d *Dom) Compute(prog *ir.Program, order []ir.PointID, index []int32) {
	d.Order = order
	n := len(order)
	d.predOff, d.pred = group(d.predOff, d.pred, n, func(emit func(k, v int32)) {
		for i, id := range order {
			for _, p := range prog.Point(id).Preds {
				if pi := index[p]; pi > 0 {
					emit(int32(i), pi-1)
				}
			}
		}
	})
	d.computeIdom()
	d.childOff, d.child = group(d.childOff, d.child, n, func(emit func(k, v int32)) {
		for i := int32(1); int(i) < n; i++ {
			emit(d.Idom[i], i)
		}
	})
	// Dominance frontiers: the standard per-join-point walk. For each point
	// with >= 2 predecessors, walk each predecessor's dominator chain up to
	// (not including) the point's idom, adding the point to every frontier
	// on the way. Points are visited in ascending order, so each frontier is
	// too.
	d.seen = resize(d.seen, n)
	d.frontOff, d.front = group(d.frontOff, d.front, n, func(emit func(k, v int32)) {
		for i := range d.seen {
			d.seen[i] = -1
		}
		for i := int32(0); int(i) < n; i++ {
			if preds := d.preds(int(i)); len(preds) >= 2 {
				for _, p := range preds {
					// The chain always meets idom[i], which dominates every
					// predecessor of i.
					for r := p; r != d.Idom[i] && d.seen[r] != i; r = d.Idom[r] {
						emit(r, i)
						d.seen[r] = i
					}
				}
			}
		}
	})
}

// group fills off (n+1 entries) and vals so that vals[off[k]:off[k+1]] lists
// the values each emits under key k, in emission order. each runs twice:
// once to count, once to place.
func group(off, vals []int32, n int, each func(emit func(k, v int32))) ([]int32, []int32) {
	off = resize(off, n+1)
	clear(off)
	each(func(k, _ int32) { off[k+1]++ })
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	vals = resize(vals, int(off[n]))
	each(func(k, v int32) {
		vals[off[k]] = v
		off[k]++
	})
	copy(off[1:], off[:n])
	off[0] = 0
	return off, vals
}

// resize returns s with length n, reallocating only when it is too short.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (d *Dom) preds(i int) []int32 { return d.pred[d.predOff[i]:d.predOff[i+1]] }

// Children returns the dominator-tree children of Order[i] (RPO indices,
// ascending).
func (d *Dom) Children(i int) []int32 { return d.child[d.childOff[i]:d.childOff[i+1]] }

// Frontier returns the dominance frontier of Order[i] (RPO indices,
// ascending).
func (d *Dom) Frontier(i int) []int32 { return d.front[d.frontOff[i]:d.frontOff[i+1]] }

// computeIdom is Cooper–Harvey–Kennedy: iterate intersecting predecessor
// dominators in RPO until fixpoint.
func (d *Dom) computeIdom() {
	n := len(d.Order)
	idom := resize(d.Idom, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			newIdom := int32(-1)
			for _, p := range d.preds(i) {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
	d.Idom = idom
}

// Dominates reports whether RPO index a dominates b.
func (d *Dom) Dominates(a, b int) bool {
	for b != 0 {
		if a == b {
			return true
		}
		b = int(d.Idom[b])
	}
	return a == 0
}

// IDF computes iterated dominance frontiers — the phi placement sites of a
// location defined at given points — for many definition sets, reusing its
// marks and buffers across calls and Doms. The zero value is ready to use.
type IDF struct {
	// inDF[i] and onWork[i] hold the number of the call that last marked
	// index i, so a new call starts with every mark clear.
	inDF, onWork []int32
	call         int32
	work, out    []int32
}

// Of returns the iterated dominance frontier in d of defs (RPO indices), in
// discovery order. The result is valid until the next call.
func (f *IDF) Of(d *Dom, defs []int32) []int32 {
	if len(f.inDF) < len(d.Order) {
		// Fresh marks are 0, below every call number.
		f.inDF = make([]int32, len(d.Order))
		f.onWork = make([]int32, len(d.Order))
	}
	f.call++
	f.out = f.out[:0]
	f.work = append(f.work[:0], defs...)
	for _, w := range f.work {
		f.onWork[w] = f.call
	}
	for len(f.work) > 0 {
		x := f.work[len(f.work)-1]
		f.work = f.work[:len(f.work)-1]
		for _, y := range d.Frontier(int(x)) {
			if f.inDF[y] != f.call {
				f.inDF[y] = f.call
				f.out = append(f.out, y)
				if f.onWork[y] != f.call {
					f.onWork[y] = f.call
					f.work = append(f.work, y)
				}
			}
		}
	}
	return f.out
}

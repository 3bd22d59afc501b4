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
// are absent.
type Dom struct {
	Proc  *ir.Proc
	Order []ir.PointID       // reverse postorder, Order[0] == entry
	Index map[ir.PointID]int // point -> RPO index
	// Idom[i] is the RPO index of the immediate dominator of Order[i];
	// Idom[0] == 0 (the entry dominates itself).
	Idom []int
	// Children[i] lists the dominator-tree children of Order[i].
	Children [][]int
	// Frontier[i] is the dominance frontier of Order[i] (RPO indices).
	Frontier [][]int
}

// Compute builds dominance information for proc within prog.
func Compute(prog *ir.Program, proc *ir.Proc) *Dom {
	d := &Dom{Proc: proc}
	d.Order = rpo(prog, proc)
	d.Index = make(map[ir.PointID]int, len(d.Order))
	for i, id := range d.Order {
		d.Index[id] = i
	}
	n := len(d.Order)
	preds := make([][]int, n)
	for i, id := range d.Order {
		for _, p := range prog.Point(id).Preds {
			if pi, ok := d.Index[p]; ok {
				preds[i] = append(preds[i], pi)
			}
		}
	}
	d.computeIdom(preds)
	d.Children = make([][]int, n)
	for i := 1; i < n; i++ {
		d.Children[d.Idom[i]] = append(d.Children[d.Idom[i]], i)
	}
	d.computeFrontier(preds)
	return d
}

func rpo(prog *ir.Program, proc *ir.Proc) []ir.PointID {
	var post []ir.PointID
	visited := map[ir.PointID]bool{proc.Entry: true}
	type frame struct {
		id ir.PointID
		si int
	}
	stack := []frame{{id: proc.Entry}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := prog.Point(f.id).Succs
		if f.si < len(succs) {
			s := succs[f.si]
			f.si++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{id: s})
			}
			continue
		}
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// computeIdom is Cooper–Harvey–Kennedy: iterate intersecting predecessor
// dominators in RPO until fixpoint.
func (d *Dom) computeIdom(preds [][]int) {
	n := len(d.Order)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
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
			newIdom := -1
			for _, p := range preds[i] {
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

// computeFrontier is the standard per-join-point walk: for each point with
// >= 2 predecessors, walk each predecessor's dominator chain up to (not
// including) the point's idom, adding the point to every frontier on the
// way.
func (d *Dom) computeFrontier(preds [][]int) {
	n := len(d.Order)
	d.Frontier = make([][]int, n)
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	for i := 0; i < n; i++ {
		if len(preds[i]) < 2 {
			continue
		}
		for _, p := range preds[i] {
			// Walk p's dominator chain up to (excluding) idom[i]; the chain
			// always meets idom[i], which dominates every predecessor of i.
			for r := p; r != d.Idom[i] && seen[r] != i; r = d.Idom[r] {
				d.Frontier[r] = append(d.Frontier[r], i)
				seen[r] = i
			}
		}
	}
}

// Dominates reports whether RPO index a dominates b.
func (d *Dom) Dominates(a, b int) bool {
	for b != 0 {
		if a == b {
			return true
		}
		b = d.Idom[b]
	}
	return a == 0
}

// IDF computes iterated dominance frontiers of one Dom — the phi placement
// sites of a location defined at given points — for many definition sets,
// reusing its marks and buffers across calls.
type IDF struct {
	d *Dom
	// inDF[i] and onWork[i] hold the number of the call that last marked
	// index i, so a new call starts with every mark clear.
	inDF, onWork []int32
	call         int32
	work, out    []int
}

// NewIDF returns an iterated-frontier calculator for d.
func (d *Dom) NewIDF() *IDF {
	return &IDF{d: d, inDF: make([]int32, len(d.Order)), onWork: make([]int32, len(d.Order))}
}

// Of returns the iterated dominance frontier of defs (RPO indices), in
// discovery order. The result is valid until the next call.
func (f *IDF) Of(defs []int) []int {
	f.call++
	f.out = f.out[:0]
	f.work = append(f.work[:0], defs...)
	for _, w := range f.work {
		f.onWork[w] = f.call
	}
	for len(f.work) > 0 {
		x := f.work[len(f.work)-1]
		f.work = f.work[:len(f.work)-1]
		for _, y := range f.d.Frontier[x] {
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

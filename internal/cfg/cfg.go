// Package cfg computes control-flow-graph orderings shared by the fixpoint
// solvers and the def-use-graph builder: per-procedure reverse postorder
// (iteration priority) and back-edge targets (intraprocedural widening
// points), both from one depth-first walk per procedure, and the global
// widening-point set that also cuts recursion cycles at entries of
// procedures in call-graph SCCs.
package cfg

import (
	"slices"

	"sparrow/internal/callgraph"
	"sparrow/internal/ir"
)

// The per-point colours of the depth-first walk.
const (
	unvisited uint8 = iota
	onStack
	done
)

// frame is one depth-first stack entry: a point and its next successor.
type frame struct {
	id ir.PointID
	si int
}

// walk runs one depth-first search of proc's CFG from its entry, successors
// in order. It appends the reachable points to order in reverse postorder and
// marks in head the targets of back edges (edges u→v where v is an ancestor
// of u in the DFS tree), the conventional widening points. state holds the
// colour of every point; a point is coloured by the walk of its procedure
// only, so one table serves every procedure.
func walk(prog *ir.Program, proc *ir.Proc, order []ir.PointID, head []bool, state []uint8, stack []frame) ([]ir.PointID, []frame) {
	start := len(order)
	stack = append(stack[:0], frame{id: proc.Entry})
	state[proc.Entry] = onStack
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := prog.Point(f.id).Succs
		if f.si < len(succs) {
			s := succs[f.si]
			f.si++
			switch state[s] {
			case unvisited:
				state[s] = onStack
				stack = append(stack, frame{id: s})
			case onStack:
				head[s] = true
			}
			continue
		}
		state[f.id] = done
		order = append(order, f.id)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(order[start:])
	return order, stack
}

// Info bundles the global solver orderings for a program.
type Info struct {
	// Prio[pt] is the dequeue priority (callees first, then reverse
	// postorder within each procedure).
	Prio []int
	// Widen[pt] marks widening points: intraprocedural loop heads, entries
	// of procedures involved in call-graph cycles, and return sites of
	// recursive calls (exit→return-site value cycles never cross an entry,
	// so they need their own widening point).
	Widen []bool
	// LoopHead[pt] marks the targets of back edges of the depth-first walk
	// that also yields the reverse postorder: the intraprocedural loop heads.
	LoopHead []bool
	// order holds every procedure's reverse postorder back to back, in
	// bottom-up order; span[p] delimits procedure p's.
	order []ir.PointID
	span  [][2]int32
}

// Compute builds the orderings for prog given its call graph and resolved
// callees.
func Compute(prog *ir.Program, cg *callgraph.Graph, callees func(ir.PointID) []ir.ProcID) *Info {
	n := len(prog.Points)
	inf := &Info{
		Prio:     make([]int, n),
		Widen:    make([]bool, n),
		LoopHead: make([]bool, n),
		order:    make([]ir.PointID, 0, n),
		span:     make([][2]int32, len(prog.Procs)),
	}
	for i := range inf.Prio {
		inf.Prio[i] = 1 << 30 // unreachable points go last
	}
	state := make([]uint8, n)
	var stack []frame
	for _, p := range cg.BottomUp() {
		proc := prog.ProcByID(p)
		start := len(inf.order)
		inf.order, stack = walk(prog, proc, inf.order, inf.LoopHead, state, stack)
		inf.span[p] = [2]int32{int32(start), int32(len(inf.order))}
		for i, id := range inf.order[start:] {
			inf.Prio[id] = start + i
			if inf.LoopHead[id] {
				inf.Widen[id] = true
			}
		}
		if cg.InCycle(p) {
			inf.Widen[proc.Entry] = true
		}
		for _, cp := range proc.Calls {
			for _, q := range callees(cp) {
				if cg.SCCOf[q] == cg.SCCOf[p] {
					// Recursive call: widen at its return site(s).
					for _, s := range prog.Point(cp).Succs {
						inf.Widen[s] = true
					}
					break
				}
			}
		}
	}
	return inf
}

// ProcRPO returns the cached reverse postorder of proc.
func (inf *Info) ProcRPO(p ir.ProcID) []ir.PointID {
	sp := inf.span[p]
	return inf.order[sp[0]:sp[1]:sp[1]]
}

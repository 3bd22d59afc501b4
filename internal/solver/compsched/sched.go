// Package compsched is the sparse solvers' shared driver (Driver): the
// global worklist and the sequential component schedule, used by the
// interval and octagon solvers and the incremental solver alike.
//
// The def-use graph's SCC condensation is a DAG of components
// (dug.Partition), numbered topologically. Values flow only along
// dependency edges, so a component's fixpoint depends on nothing but its
// condensation predecessors. Control reachability is the one signal that
// does not follow dependency edges; the scheduling DAG therefore adds every
// topologically forward reach edge to the condensation (BuildSched). A wave
// runs the components with work in ascending order (Sched.Wave); marks along
// backward reach edges — loop back edges, recursive returns — are deferred
// by the driver to the end of the wave, and waves repeat until no work is
// left.
package compsched

import (
	"sort"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

// Sched is the scheduling DAG over a partition's components plus the scratch
// of one wave.
type Sched struct {
	// Succs[c] lists the scheduling successors of component c, ascending.
	Succs [][]int32

	pending []bool // heap membership, per component
	heap    []int32
}

// BuildSched derives the augmented scheduling DAG over a partition's
// components: the condensation edges plus every topologically *forward*
// control-reachability edge (CFG successor, call→entry, exit→retsite whose
// target component is numbered higher). The component numbering is
// topological over dependency edges, so adding forward edges keeps it
// acyclic. Marks landing in a scheduling successor are applied before that
// component starts; only backward reach edges (loops, recursion returns)
// defer to the end of the wave.
//
// Both component solvers and the incremental driver schedule over the DAG
// this function builds — sharing the construction is part of what makes the
// incremental replay schedule canonical.
func BuildSched(prog *ir.Program, pre *prean.Result, p *dug.Partition) *Sched {
	k := p.NumComps()
	sets := make([]map[int32]bool, k)
	add := func(cu, cv int32) {
		if cu >= cv {
			return
		}
		if sets[cu] == nil {
			sets[cu] = map[int32]bool{}
		}
		sets[cu][cv] = true
	}
	for _, pt := range prog.Points {
		cu := p.Comp[pt.ID]
		ReachTargets(prog, pre, pt, func(t ir.PointID) {
			add(cu, p.Comp[t])
		})
	}
	succs := make([][]int32, k)
	for c := 0; c < k; c++ {
		base := p.Succs[c]
		extra := sets[c]
		if extra == nil {
			succs[c] = base
			continue
		}
		for _, v := range base {
			extra[v] = true
		}
		out := make([]int32, 0, len(extra))
		for v := range extra {
			out = append(out, v)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		succs[c] = out
	}
	return &Sched{Succs: succs, pending: make([]bool, k)}
}

// ReachTargets visits the control-reachability targets of one point: callee
// entries for resolved calls, return sites for exits, plain CFG successors
// otherwise (including calls with no resolved callee).
func ReachTargets(prog *ir.Program, pre *prean.Result, pt *ir.Point, visit func(ir.PointID)) {
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				visit(s)
			}
			return
		}
		for _, cp := range callees {
			visit(prog.ProcByID(cp).Entry)
		}
	case ir.Exit:
		for _, rs := range pre.RetSites[pt.Proc] {
			visit(rs)
		}
	default:
		for _, s := range pt.Succs {
			visit(s)
		}
	}
}

// HasSucc reports whether dst is a direct scheduling successor of src.
func (s *Sched) HasSucc(src, dst int32) bool {
	succs := s.Succs[src]
	i := sort.Search(len(succs), func(i int) bool { return succs[i] >= dst })
	return i < len(succs) && succs[i] == dst
}

// Wave runs one wave: a min-heap over the component ids with work, popped in
// ascending — i.e. topological — order. Work only ever flows to higher ids
// (value pushes and immediate marks both target scheduling successors), so
// once the minimum pending component runs, no lower component can gain work
// again this wave; the wave visits exactly the components with work, each
// after every predecessor with work has run. hasWork(c) reports a non-empty
// seed bucket; run(c) consumes it.
func (s *Sched) Wave(hasWork func(c int32) bool, run func(c int32)) {
	for c := range s.Succs {
		if hasWork(int32(c)) {
			s.push(int32(c))
		}
	}
	for len(s.heap) > 0 {
		c := s.pop()
		run(c)
		for _, succ := range s.Succs[c] {
			if hasWork(succ) {
				s.push(succ)
			}
		}
	}
}

func (s *Sched) push(c int32) {
	if s.pending[c] {
		return
	}
	s.pending[c] = true
	h := append(s.heap, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heap = h
}

func (s *Sched) pop() int32 {
	h := s.heap
	c := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.heap = h
	s.pending[c] = false
	return c
}

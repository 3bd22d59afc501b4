package sparse

import (
	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/val"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
)

// intervals is the interval instance of the loop: values are val.Val, an
// unbound slot is marked by its bound bit (a bound slot may hold bottom,
// just as mem.Set and mem.WeakSet bind explicit bottoms), widening counters
// are per Out slot, and the descending phase is supported.
type intervals struct{ s *sem.Sem }

// Intervals returns the interval domain with the semantics s.
func Intervals(s *sem.Sem) Domain[val.Val] { return intervals{s} }

func (d intervals) transfer(pt *ir.Point, f *frame[val.Val]) bool {
	_, ok := sem.Transfer(d.s, pt, f)
	return ok
}

func (d intervals) bindFormals(callPt *ir.Point, callee *ir.Proc, f *frame[val.Val]) {
	sem.BindFormals(d.s, callPt, callee, f)
}

// joinOut is the fused join: the steady-state case (v ⊑ old) is a
// comparison with no allocation.
func (intervals) joinOut(old val.Val, _ bool, v val.Val) (val.Val, bool) {
	return old.JoinChanged(v)
}

func (intervals) widen(old val.Val, _ bool, joined val.Val) (val.Val, bool) {
	return old.WidenChanged(joined)
}

// joinAcc is a weak update that binds an unbound slot to v.
func (intervals) joinAcc(old val.Val, bound bool, v val.Val) (val.Val, bool) {
	if v.LessEq(old) {
		return old, false
	}
	if bound {
		v = old.Join(v)
	}
	return v, true
}

func (intervals) params() (int, bool) { return 256, false }

// narrow runs descending Jacobi sweeps over the slots: recompute every
// node's output from its (current) input, rebuild the inputs as the join
// of dependency predecessors' outputs, and narrow the stored inputs and
// outputs towards them. Sweeps stop early at stability.
func (intervals) narrow(st *solver[val.Val], passes int) {
	g, res := st.g, st.res
	n := g.NumNodes()
	next := make([]val.Val, len(res.out))
	ok := make([]bool, n)
	newAcc := make([]val.Val, len(res.acc))
	newSet := make([]bool, len(res.acc))
	for pass := 0; pass < passes; pass++ {
		st.opt.Budget.Checkpoint(rt.PhaseFix)
		for i := range n {
			if ok[i] = st.eval(dug.NodeID(i)); ok[i] {
				copy(next[res.cbase[i]:], st.f.nv)
			}
		}
		// Rebuild the inputs from the recomputed outputs, each pushed value
		// weakly updating its successor's slot.
		clear(newSet)
		for i := range n {
			if !ok[i] {
				continue
			}
			cur := g.Out(dug.NodeID(i))
			for k, l := range g.DefsOf(dug.NodeID(i)) {
				v := next[res.cbase[i]+int32(k)]
				if v.IsBot() {
					continue
				}
				_, slots := cur.SeekSlots(l)
				for _, a := range slots {
					if !newSet[a] {
						newAcc[a], newSet[a] = v, true
					} else if j, ch := newAcc[a].JoinChanged(v); ch {
						newAcc[a] = j
					}
				}
			}
		}
		stable := true
		for a, bound := range res.accSet {
			if bound && newSet[a] {
				if v, ch := res.acc[a].NarrowChanged(newAcc[a]); ch {
					res.acc[a], stable = v, false
				}
			}
		}
		// Refresh stored outputs from the narrowed inputs so Out keeps
		// agreeing with f#(Acc) on D̂. Detect first, then rebuild only on
		// change — the rebuild binds every definition, explicit bottoms
		// included.
		for i := range n {
			if !st.eval(dug.NodeID(i)) {
				continue
			}
			b, e := res.cbase[i], res.cbase[i+1]
			out, nv := res.out[b:e], st.f.nv
			changed := false
			for k := range out {
				if _, ch := out[k].NarrowChanged(nv[k]); ch {
					changed = true
					break
				}
			}
			if !changed {
				continue
			}
			for k := range out {
				out[k] = out[k].Narrow(nv[k])
			}
			for k := b; k < e; k++ {
				res.outSet[k] = true
			}
			stable = false
		}
		if stable {
			return
		}
	}
}

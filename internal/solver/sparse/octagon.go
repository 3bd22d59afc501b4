package sparse

import (
	"sparrow/internal/ir"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
)

// octagons is the packed relational instance of the loop (Octagon_sparse
// of Table 3): the keys are packs, values are octagons, nil marks an
// unbound slot, widening counters are per node (a firing that changed any
// of the node's packs counts once; per-slot counters would change the
// octagon joins and widenings), and the root entry injects the arbitrary
// initial state. There is no descending phase.
type octagons struct {
	s    *octsem.Sem
	root ir.PointID
}

// Octagons returns the octagon domain with the semantics s.
func Octagons(s *octsem.Sem) Domain[*oct.Oct] {
	return octagons{s: s, root: s.Prog.ProcByID(s.Prog.Main).Entry}
}

// transfer applies the command at pt; the root entry binds every pack it
// defines to Top (octsem.Sem.TopState restricted to the node).
func (d octagons) transfer(pt *ir.Point, f *frame[*oct.Oct]) bool {
	if pt.ID == d.root {
		for _, p := range f.defs {
			f.Set(p, oct.Top(len(d.s.Packs.Members[p])))
		}
		return true
	}
	_, ok := octsem.Transfer(d.s, pt, f)
	return ok
}

func (d octagons) bindFormals(callPt *ir.Point, callee *ir.Proc, f *frame[*oct.Oct]) {
	octsem.BindFormals(d.s, callPt, callee, f)
}

// joinOut skips a pack the transfer did not produce and binds an unbound
// slot only to a non-bottom octagon. The fused join re-closes nothing when
// v is already included.
func (octagons) joinOut(old *oct.Oct, bound bool, v *oct.Oct) (*oct.Oct, bool) {
	switch {
	case v == nil:
		return old, false
	case !bound:
		return v, !v.IsBottom()
	}
	return old.JoinChanged(v)
}

// widen extrapolates only from a bound slot; the widened octagon is stored
// as built (unclosed), which the next widening starts from.
func (octagons) widen(old *oct.Oct, bound bool, joined *oct.Oct) (*oct.Oct, bool) {
	if !bound {
		return joined, false
	}
	wv := old.Widen(joined)
	return wv, !wv.Eq(joined)
}

func (octagons) joinAcc(old *oct.Oct, bound bool, v *oct.Oct) (*oct.Oct, bool) {
	if !bound {
		return v, true
	}
	return old.JoinChanged(v)
}

func (octagons) params() (int, bool) { return 64, true }

func (octagons) narrow(*solver[*oct.Oct], int) {}

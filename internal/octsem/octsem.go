package octsem

import (
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/oct"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	"sparrow/internal/sem"
)

// Sem evaluates the packed relational semantics of one program. Pointer
// targets (stores, loads, function pointers) are resolved against the
// flow-insensitive pre-analysis memory, as the paper resolves function
// pointers — the relational fixpoint itself runs purely over pack states.
type Sem struct {
	Prog  *ir.Program
	Pre   *prean.Result
	Packs *pack.Set
	isem  *sem.Sem
}

// New returns a relational semantics evaluator.
func New(prog *ir.Program, pre *prean.Result, packs *pack.Set) *Sem {
	return &Sem{
		Prog:  prog,
		Pre:   pre,
		Packs: packs,
		isem:  pre.Sem(prog),
	}
}

// TopState returns the state binding every pack to Top — the abstraction of
// the arbitrary initial memory, injected at the root entry.
func (s *Sem) TopState() OMem {
	m := OBot
	for p, members := range s.Packs.Members {
		m = m.Set(pack.ID(p), oct.Top(len(members)))
	}
	return m
}

// ---------- interval evaluation (the projection px of Section 4.1) ----------

// EvalItv evaluates e to an interval under the pack state, projecting
// variables out of their singleton packs.
func (s *Sem) EvalItv(e ir.Expr, m OMem) itv.Itv {
	switch e := e.(type) {
	case ir.Const:
		return itv.Single(e.V)
	case ir.Unknown:
		return itv.Top
	case ir.VarE:
		return s.projLoc(e.L, m)
	case ir.Load:
		pv := s.isem.Eval(e.P, s.Pre.Mem)
		out := itv.Bot
		for _, t := range pv.Ptr() {
			out = out.Join(s.projLoc(t.Loc, m))
		}
		return out
	case ir.LoadField:
		pv := s.isem.Eval(e.P, s.Pre.Mem)
		out := itv.Bot
		for _, t := range pv.Ptr() {
			out = out.Join(s.projLoc(s.Prog.Locs.Field(t.Loc, e.F), m))
		}
		return out
	case ir.AddrOf, ir.FieldAddr, ir.FuncAddr:
		return itv.Top // pointers as integers: unconstrained
	case ir.Neg:
		return s.EvalItv(e.X, m).Neg()
	case ir.Not:
		return truthItv(s.EvalItv(e.X, m).Truth(), true)
	case ir.Bin:
		return s.evalBin(e, m)
	default:
		return itv.Top
	}
}

func (s *Sem) projLoc(l ir.LocID, m OMem) itv.Itv {
	p, ok := s.Packs.Singleton(l)
	if !ok {
		return itv.Top
	}
	o := m.Get(p)
	if o == nil {
		return itv.Bot
	}
	return o.Interval(0)
}

func truthItv(t int, neg bool) itv.Itv {
	mayT := t&itv.MaybeTrue != 0
	mayF := t&itv.MaybeFalse != 0
	if neg {
		mayT, mayF = mayF, mayT
	}
	switch {
	case mayT && mayF:
		return itv.OfInts(0, 1)
	case mayT:
		return itv.Single(1)
	case mayF:
		return itv.Single(0)
	default:
		return itv.Bot
	}
}

func (s *Sem) evalBin(e ir.Bin, m OMem) itv.Itv {
	x := s.EvalItv(e.X, m)
	y := s.EvalItv(e.Y, m)
	switch e.Op {
	case ir.Add:
		return x.Add(y)
	case ir.Sub:
		return x.Sub(y)
	case ir.Mul:
		return x.Mul(y)
	case ir.Div:
		return x.Div(y)
	case ir.Rem:
		return x.Rem(y)
	case ir.Lt:
		return cmpItv(!x.LtFilter(y).IsBot(), !x.GeFilter(y).IsBot())
	case ir.Le:
		return cmpItv(!x.LeFilter(y).IsBot(), !x.GtFilter(y).IsBot())
	case ir.Gt:
		return cmpItv(!x.GtFilter(y).IsBot(), !x.LeFilter(y).IsBot())
	case ir.Ge:
		return cmpItv(!x.GeFilter(y).IsBot(), !x.LtFilter(y).IsBot())
	case ir.Eq:
		cx, okx := x.Const()
		cy, oky := y.Const()
		return cmpItv(!x.Meet(y).IsBot(), !(okx && oky && cx == cy))
	case ir.Ne:
		cx, okx := x.Const()
		cy, oky := y.Const()
		return cmpItv(!(okx && oky && cx == cy), !x.Meet(y).IsBot())
	case ir.LAnd:
		tx, ty := x.Truth(), y.Truth()
		return cmpItv(tx&itv.MaybeTrue != 0 && ty&itv.MaybeTrue != 0,
			tx&itv.MaybeFalse != 0 || ty&itv.MaybeFalse != 0)
	case ir.LOr:
		tx, ty := x.Truth(), y.Truth()
		return cmpItv(tx&itv.MaybeTrue != 0 || ty&itv.MaybeTrue != 0,
			tx&itv.MaybeFalse != 0 && ty&itv.MaybeFalse != 0)
	default:
		if x.IsBot() || y.IsBot() {
			return itv.Bot
		}
		return itv.Top
	}
}

func cmpItv(mayT, mayF bool) itv.Itv {
	switch {
	case mayT && mayF:
		return itv.OfInts(0, 1)
	case mayT:
		return itv.Single(1)
	case mayF:
		return itv.Single(0)
	default:
		return itv.Bot
	}
}

// ---------- the internal relational language (T of Section 4.1) ----------

// linearForm matches e against the octagon-expressible shapes ±y + [a, b].
func linearForm(e ir.Expr) (y ir.LocID, neg bool, c itv.Itv, ok bool) {
	switch e := e.(type) {
	case ir.VarE:
		return e.L, false, itv.Single(0), true
	case ir.Neg:
		if v, isVar := e.X.(ir.VarE); isVar {
			return v.L, true, itv.Single(0), true
		}
	case ir.Bin:
		switch e.Op {
		case ir.Add:
			if v, isVar := e.X.(ir.VarE); isVar {
				if k, isC := e.Y.(ir.Const); isC {
					return v.L, false, itv.Single(k.V), true
				}
			}
			if v, isVar := e.Y.(ir.VarE); isVar {
				if k, isC := e.X.(ir.Const); isC {
					return v.L, false, itv.Single(k.V), true
				}
			}
		case ir.Sub:
			if v, isVar := e.X.(ir.VarE); isVar {
				if k, isC := e.Y.(ir.Const); isC {
					return v.L, false, itv.Single(-k.V), true
				}
			}
			if v, isVar := e.Y.(ir.VarE); isVar {
				if k, isC := e.X.(ir.Const); isC {
					return v.L, true, itv.Single(k.V), true
				}
			}
		}
	}
	return 0, false, itv.Bot, false
}

// assign models l := e on every pack containing l. strong selects strong
// versus weak (join) update. Transfers are strict: packs with no incoming
// value (bottom) stay bottom.
func (s *Sem) assign(l ir.LocID, e ir.Expr, strong bool, m OMem) OMem {
	y, neg, c, linear := linearForm(e)
	var iv itv.Itv
	if !linear {
		iv = s.EvalItv(e, m)
	}
	for _, p := range s.Packs.PacksOf(l) {
		old := m.Get(p)
		if old == nil {
			continue // strict: unreached pack stays bottom
		}
		xi := s.Packs.IndexIn(l, p)
		if linear {
			if yi := s.Packs.IndexIn(y, p); yi >= 0 {
				if strong {
					m = m.Set(p, old.AssignAddVar(xi, yi, neg, c))
				} else {
					m = m.Set(p, old.WeakAssignAddVar(xi, yi, neg, c))
				}
				continue
			}
			// y outside the pack: project it to an interval (the px
			// transformation) and fall back.
			yv := s.projLoc(y, m)
			if neg {
				yv = yv.Neg()
			}
			m = m.Set(p, setItv(old, xi, yv.Add(c), strong))
			continue
		}
		m = m.Set(p, setItv(old, xi, iv, strong))
	}
	return m
}

// havoc forgets l in every pack containing it (weakly: join with the
// forgotten state is the forgotten state itself, so weak and strong havoc
// coincide).
func (s *Sem) havoc(l ir.LocID, m OMem) OMem {
	for _, p := range s.Packs.PacksOf(l) {
		old := m.Get(p)
		if old == nil {
			continue
		}
		m = m.Set(p, old.Forget(s.Packs.IndexIn(l, p)))
	}
	return m
}

// ---------- transfer ----------

// Transfer applies the relational f#_c at pt. The boolean reports
// reachability (false for refuted assumes).
func (s *Sem) Transfer(pt *ir.Point, m OMem) (OMem, bool) {
	switch c := pt.Cmd.(type) {
	case ir.Set:
		strong := !s.isem.IsSummaryLoc(c.L)
		return s.assign(c.L, c.E, strong, m), true
	case ir.Store, ir.StoreField:
		var pe, ve ir.Expr
		field := ""
		if st, ok := c.(ir.Store); ok {
			pe, ve = st.P, st.E
		} else {
			sf := c.(ir.StoreField)
			pe, ve, field = sf.P, sf.E, sf.F
		}
		pv := s.isem.Eval(pe, s.Pre.Mem)
		targets := make([]ir.LocID, 0, len(pv.Ptr()))
		for _, t := range pv.Ptr() {
			l := t.Loc
			if field != "" {
				l = s.Prog.Locs.Field(l, field)
			}
			targets = append(targets, l)
		}
		strong := len(targets) == 1 && !s.isem.IsSummaryLoc(targets[0])
		for _, t := range targets {
			m = s.assign(t, ve, strong, m)
		}
		return m, true
	case ir.Alloc:
		al := s.Prog.Locs.Alloc(c.Site)
		m = s.assign(al, ir.Unknown{}, false, m)
		return s.assign(c.L, ir.Unknown{}, !s.isem.IsSummaryLoc(c.L), m), true
	case ir.Assume:
		return s.assume(c.E, m)
	case ir.Call:
		return m, true // formals bind on the call→entry edge
	case ir.RetBind:
		if c.L == ir.None {
			return m, true
		}
		callees := s.Pre.CalleesOf(c.CallPt)
		if len(callees) == 1 {
			if rl := s.Prog.ProcByID(callees[0]).RetLoc; rl != ir.None {
				return s.assign(c.L, ir.VarE{L: rl}, !s.isem.IsSummaryLoc(c.L), m), true
			}
		}
		// Multiple or void callees: interval join of return channels.
		iv := itv.Bot
		if len(callees) == 0 {
			iv = itv.Top
		}
		for _, p := range callees {
			if rl := s.Prog.ProcByID(p).RetLoc; rl != ir.None {
				iv = iv.Join(s.projLoc(rl, m))
			} else {
				iv = itv.Top
			}
		}
		return s.assignItv(c.L, iv, !s.isem.IsSummaryLoc(c.L), m), true
	case ir.Return:
		pr := s.Prog.ProcByID(pt.Proc)
		if c.E != nil && pr.RetLoc != ir.None {
			return s.assign(pr.RetLoc, c.E, true, m), true
		}
		return m, true
	default:
		return m, true
	}
}

// assignItv assigns a plain interval to l.
func (s *Sem) assignItv(l ir.LocID, iv itv.Itv, strong bool, m OMem) OMem {
	for _, p := range s.Packs.PacksOf(l) {
		old := m.Get(p)
		if old == nil {
			continue
		}
		m = m.Set(p, setItv(old, s.Packs.IndexIn(l, p), iv, strong))
	}
	return m
}

// setItv models the strong or weak update of variable x of o with iv.
func setItv(o *oct.Oct, x int, iv itv.Itv, strong bool) *oct.Oct {
	if strong {
		return o.AssignInterval(x, iv)
	}
	return o.WeakAssignInterval(x, iv)
}

// BindFormals models the call edge: formals := actuals (relational when an
// actual shares a pack with its formal, which the packing constructs).
func (s *Sem) BindFormals(callPt *ir.Point, callee *ir.Proc, m OMem) OMem {
	c := callPt.Cmd.(ir.Call)
	for i, f := range callee.Formals {
		if i < len(c.Args) {
			m = s.assign(f, c.Args[i], false, m) // weak: several call sites bind
		} else {
			m = s.assignItv(f, itv.Top, false, m)
		}
	}
	return m
}

// ---------- assume ----------

func (s *Sem) assume(e ir.Expr, m OMem) (OMem, bool) {
	t := s.EvalItv(e, m).Truth()
	if t&itv.MaybeTrue == 0 {
		return OBot, false
	}
	switch e := e.(type) {
	case ir.Bin:
		if e.Op.IsCmp() {
			return s.refineCmp(e, m)
		}
		if e.Op == ir.LAnd {
			m1, ok := s.assume(e.X, m)
			if !ok {
				return OBot, false
			}
			return s.assume(e.Y, m1)
		}
	case ir.Not:
		if v, ok := e.X.(ir.VarE); ok {
			return s.refineBounds(v.L, ir.Eq, itv.Single(0), m)
		}
	case ir.VarE:
		return s.refineBounds(e.L, ir.Ne, itv.Single(0), m)
	}
	return m, true
}

// refineCmp refines a comparison: relationally inside packs containing both
// operands, and by interval bounds in all packs of each variable operand.
func (s *Sem) refineCmp(e ir.Bin, m OMem) (OMem, bool) {
	x, xIsVar := e.X.(ir.VarE)
	y, yIsVar := e.Y.(ir.VarE)
	// Relational refinement x op y within shared packs.
	if xIsVar && yIsVar {
		var ok bool
		m, ok = s.refineRel(x.L, y.L, e.Op, m)
		if !ok {
			return OBot, false
		}
	}
	// Interval refinement of each variable side against the other side.
	if xIsVar {
		yv := s.EvalItv(e.Y, m)
		if !yv.IsBot() {
			var ok bool
			m, ok = s.refineBounds(x.L, e.Op, yv, m)
			if !ok {
				return OBot, false
			}
		}
	}
	if yIsVar {
		xv := s.EvalItv(e.X, m)
		if !xv.IsBot() {
			var ok bool
			m, ok = s.refineBounds(y.L, e.Op.Swap(), xv, m)
			if !ok {
				return OBot, false
			}
		}
	}
	return m, true
}

// refineRel adds the octagon constraint for "lx op ly" to every pack
// containing both variables.
func (s *Sem) refineRel(lx, ly ir.LocID, op ir.BinOp, m OMem) (OMem, bool) {
	if s.isem.IsSummaryLoc(lx) || s.isem.IsSummaryLoc(ly) {
		return m, true
	}
	for _, p := range s.Packs.PacksOf(lx) {
		yi := s.Packs.IndexIn(ly, p)
		if yi < 0 {
			continue
		}
		old := m.Get(p)
		if old == nil {
			continue
		}
		xi := s.Packs.IndexIn(lx, p)
		next := old
		switch op {
		case ir.Lt: // x - y <= -1
			next = old.Assume(oct.XMinusYLe, xi, yi, -1)
		case ir.Le:
			next = old.Assume(oct.XMinusYLe, xi, yi, 0)
		case ir.Gt: // y - x <= -1
			next = old.Assume(oct.XMinusYLe, yi, xi, -1)
		case ir.Ge:
			next = old.Assume(oct.XMinusYLe, yi, xi, 0)
		case ir.Eq:
			// Both directions in one batch: a single closure per pack.
			next = old.AssumeAll(
				oct.Constraint{Op: oct.XMinusYLe, X: xi, Y: yi},
				oct.Constraint{Op: oct.XMinusYLe, X: yi, Y: xi})
		case ir.Ne:
			// Not octagon-expressible; skip.
		}
		if next.IsBottom() {
			return OBot, false
		}
		m = m.Set(p, next)
	}
	return m, true
}

// refineBounds narrows l's interval bounds under "l op bound" in every pack
// containing l.
func (s *Sem) refineBounds(l ir.LocID, op ir.BinOp, bound itv.Itv, m OMem) (OMem, bool) {
	if s.isem.IsSummaryLoc(l) {
		return m, true
	}
	for _, p := range s.Packs.PacksOf(l) {
		old := m.Get(p)
		if old == nil {
			continue
		}
		xi := s.Packs.IndexIn(l, p)
		next := old
		switch op {
		case ir.Lt:
			if bound.Hi().IsFinite() {
				next = old.Assume(oct.XLe, xi, xi, bound.Hi().Int()-1)
			}
		case ir.Le:
			if bound.Hi().IsFinite() {
				next = old.Assume(oct.XLe, xi, xi, bound.Hi().Int())
			}
		case ir.Gt:
			if bound.Lo().IsFinite() {
				next = old.Assume(oct.XGe, xi, xi, bound.Lo().Int()+1)
			}
		case ir.Ge:
			if bound.Lo().IsFinite() {
				next = old.Assume(oct.XGe, xi, xi, bound.Lo().Int())
			}
		case ir.Eq:
			// Both bounds accumulate into one batch, closing once.
			var cs [2]oct.Constraint
			k := 0
			if bound.Hi().IsFinite() {
				cs[k] = oct.Constraint{Op: oct.XLe, X: xi, Y: xi, C: bound.Hi().Int()}
				k++
			}
			if bound.Lo().IsFinite() {
				cs[k] = oct.Constraint{Op: oct.XGe, X: xi, Y: xi, C: bound.Lo().Int()}
				k++
			}
			next = old.AssumeAll(cs[:k]...)
		case ir.Ne:
			// Interval-style hole punching is not octagon-native; refine
			// only when the excluded point is an endpoint.
			cur := old.Interval(xi)
			refined := cur.NeFilter(bound)
			if !refined.Eq(cur) {
				if refined.IsBot() {
					return OBot, false
				}
				var cs [2]oct.Constraint
				k := 0
				if refined.Hi().IsFinite() {
					cs[k] = oct.Constraint{Op: oct.XLe, X: xi, Y: xi, C: refined.Hi().Int()}
					k++
				}
				if refined.Lo().IsFinite() {
					cs[k] = oct.Constraint{Op: oct.XGe, X: xi, Y: xi, C: refined.Lo().Int()}
					k++
				}
				next = old.AssumeAll(cs[:k]...)
			}
		}
		if next.IsBottom() {
			return OBot, false
		}
		m = m.Set(p, next)
	}
	return m, true
}

// Package sem implements the abstract semantics f#_c of the non-relational
// analysis (Section 3.1): expression evaluation E#, the per-command transfer
// functions, and the semantic derivation of definition and use sets D̂(c),
// Û(c) from a conservative memory (Section 3.2).
//
// The same transfer functions serve every analyzer in this repository: the
// dense vanilla/base solvers apply them to whole memories, the sparse solver
// to partial memories over D̂/Û (absent entries are bottom), which is exactly
// the setting in which the framework's Lemma 1/2 guarantee agreement.
package sem

import (
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
)

// Sem evaluates the abstract semantics of one program.
type Sem struct {
	Prog *ir.Program
	// Callees resolves the procedures a Call point may invoke. It is nil
	// during pre-analysis (which resolves call targets from its own memory).
	Callees func(ir.PointID) []ir.ProcID
	// InCycle reports whether a procedure participates in recursion. A
	// context-insensitive analysis folds every activation of a procedure
	// into one set of cells, so locals and return channels of recursive
	// procedures abstract several concrete cells at once and must be
	// updated weakly (they are summaries). Nil treats every procedure as
	// non-recursive, which is sound only during the flow-insensitive
	// pre-analysis (where every update joins anyway).
	InCycle func(ir.ProcID) bool
	// EntryMarks, when non-nil, supplies per procedure the sorted locations
	// its Entry transfer marks possibly-uninitialized (accessed non-formal
	// locals; see the uninit checker). Non-summary locals are set strongly —
	// a concrete activation starts with a fresh frame, so overwriting stale
	// caller-side residue is sound and kills it — while summary (in-cycle)
	// locals join the marker weakly. Nil disables marking entirely, which
	// keeps the legacy analyses bit-identical.
	EntryMarks func(ir.ProcID) []ir.LocID
}

// Memory is what the transfer functions read and write: an abstract memory
// M over locations. mem.Mem is one; the sparse solver passes a frame over
// one def-use node's slots, which updates in place and returns itself. Both
// answer every read as a persistent memory would, reads after writes
// included.
type Memory[M any] interface {
	Get(ir.LocID) val.Val
	Set(ir.LocID, val.Val) M
	WeakSet(ir.LocID, val.Val) M
}

// New returns a semantics evaluator for prog.
func New(prog *ir.Program) *Sem { return &Sem{Prog: prog} }

// calleesOf returns the resolved callees of a call point (nil if unknown).
func (s *Sem) calleesOf(pt ir.PointID) []ir.ProcID {
	if s.Callees == nil {
		return nil
	}
	return s.Callees(pt)
}

// IsSummaryLoc reports whether updates to l must be weak because l
// abstracts several concrete cells: array contents, allocation sites,
// fields whose base is itself a summary, and the locals/return channels of
// recursive procedures (several activations share one abstract cell).
func (s *Sem) IsSummaryLoc(l ir.LocID) bool {
	for {
		d := s.Prog.Locs.Get(l)
		switch d.Kind {
		case ir.LArr, ir.LAlloc:
			return true
		case ir.LFld:
			l = d.Base
		case ir.LVar:
			return d.Proc != ir.None && s.InCycle != nil && s.InCycle(d.Proc)
		case ir.LRet:
			return s.InCycle != nil && s.InCycle(d.Proc)
		default:
			return false
		}
	}
}

// ---------- evaluation ----------

// Eval computes E#(e)(m).
func (s *Sem) Eval(e ir.Expr, m mem.Mem) val.Val { return eval(s, e, m) }

// eval computes E#(e)(m) over any memory.
func eval[M Memory[M]](s *Sem, e ir.Expr, m M) val.Val {
	switch e := e.(type) {
	case ir.Const:
		return val.Const(e.V)
	case ir.Unknown:
		return val.TopInt
	case ir.Indet:
		// A declaration's indeterminate content. When initialization is
		// tracked (EntryMarks set ⇔ the uninit checker is on) the value
		// carries the uninit tag; otherwise it is Unknown's plain top, so
		// legacy runs are bit-identical.
		if s.EntryMarks != nil {
			return val.UninitTop()
		}
		return val.TopInt
	case ir.VarE:
		return m.Get(e.L)
	case ir.Load:
		pv := eval(s, e.P, m)
		out := val.Bot
		for _, t := range pv.Ptr() {
			out = out.Join(m.Get(t.Loc))
		}
		return out
	case ir.LoadField:
		pv := eval(s, e.P, m)
		out := val.Bot
		for _, t := range pv.Ptr() {
			fl := s.Prog.Locs.Field(t.Loc, e.F)
			out = out.Join(m.Get(fl))
		}
		return out
	case ir.AddrOf:
		return val.FromPtr(e.L, val.Region{Off: itv.Single(0), Sz: itv.Single(e.Count)})
	case ir.FieldAddr:
		pv := eval(s, e.P, m)
		return pv.MapPtr(func(t val.PtrEntry) (val.PtrEntry, bool) {
			fl := s.Prog.Locs.Field(t.Loc, e.F)
			return val.PtrEntry{Loc: fl, R: val.Region{Off: itv.Single(0), Sz: itv.Single(1)}}, true
		}).OnlyPtr()
	case ir.FuncAddr:
		return val.FromFunc(e.F)
	case ir.Neg:
		return val.FromItv(eval(s, e.X, m).Itv().Neg())
	case ir.Not:
		return truthToVal(truth(s, e.X, m), true)
	case ir.Bin:
		return evalBin(s, e, m)
	default:
		return val.TopInt
	}
}

// truth classifies the truthiness of a condition expression value.
func truth[M Memory[M]](s *Sem, e ir.Expr, m M) int {
	v := eval(s, e, m)
	t := v.Itv().Truth()
	if v.HasPtr() || len(v.Fns()) > 0 {
		t |= itv.MaybeTrue // a concrete pointer/function is non-null
	}
	return t
}

// truthToVal converts a truth mask into an abstract 0/1 value, negating it
// when neg is set.
func truthToVal(t int, neg bool) val.Val {
	mayT := t&itv.MaybeTrue != 0
	mayF := t&itv.MaybeFalse != 0
	if neg {
		mayT, mayF = mayF, mayT
	}
	switch {
	case mayT && mayF:
		return val.FromItv(itv.OfInts(0, 1))
	case mayT:
		return val.Const(1)
	case mayF:
		return val.Const(0)
	default:
		return val.Bot
	}
}

func evalBin[M Memory[M]](s *Sem, e ir.Bin, m M) val.Val {
	x := eval(s, e.X, m)
	y := eval(s, e.Y, m)
	switch e.Op {
	case ir.Add, ir.Sub:
		return s.evalAddSub(e.Op, x, y)
	case ir.Mul:
		return val.FromItv(x.Itv().Mul(y.Itv()))
	case ir.Div:
		return val.FromItv(x.Itv().Div(y.Itv()))
	case ir.Rem:
		return val.FromItv(x.Itv().Rem(y.Itv()))
	case ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Eq, ir.Ne:
		return evalCmp(e.Op, x, y)
	case ir.LAnd:
		tx, ty := x.Itv().Truth(), y.Itv().Truth()
		if x.HasPtr() || len(x.Fns()) > 0 {
			tx |= itv.MaybeTrue
		}
		if y.HasPtr() || len(y.Fns()) > 0 {
			ty |= itv.MaybeTrue
		}
		return logicAnd(tx, ty)
	case ir.LOr:
		tx, ty := x.Itv().Truth(), y.Itv().Truth()
		if x.HasPtr() || len(x.Fns()) > 0 {
			tx |= itv.MaybeTrue
		}
		if y.HasPtr() || len(y.Fns()) > 0 {
			ty |= itv.MaybeTrue
		}
		return logicOr(tx, ty)
	case ir.BitAnd, ir.BitOr, ir.BitXor, ir.Shl, ir.Shr:
		return evalBitwise(e.Op, x.Itv(), y.Itv())
	default:
		return val.TopInt
	}
}

// evalAddSub handles both numeric arithmetic and pointer arithmetic: adding
// an integer to a pointer shifts its offset interval.
func (s *Sem) evalAddSub(op ir.BinOp, x, y val.Val) val.Val {
	var ni itv.Itv
	if op == ir.Add {
		ni = x.Itv().Add(y.Itv())
	} else {
		ni = x.Itv().Sub(y.Itv())
	}
	out := val.FromItv(ni)
	// pointer ± integer
	if x.HasPtr() && !y.Itv().IsBot() {
		d := y.Itv()
		if op == ir.Sub {
			d = d.Neg()
		}
		shifted := x.MapPtr(func(t val.PtrEntry) (val.PtrEntry, bool) {
			return val.PtrEntry{Loc: t.Loc, R: val.Region{Off: t.R.Off.Add(d), Sz: t.R.Sz}}, true
		}).OnlyPtr()
		out = out.Join(shifted)
	}
	// integer + pointer (commutative case)
	if op == ir.Add && y.HasPtr() && !x.Itv().IsBot() {
		shifted := y.MapPtr(func(t val.PtrEntry) (val.PtrEntry, bool) {
			return val.PtrEntry{Loc: t.Loc, R: val.Region{Off: t.R.Off.Add(x.Itv()), Sz: t.R.Sz}}, true
		}).OnlyPtr()
		out = out.Join(shifted)
	}
	return out
}

// evalCmp compares abstract values, yielding {0}, {1}, or {0,1}.
func evalCmp(op ir.BinOp, x, y val.Val) val.Val {
	xi, yi := x.Itv(), y.Itv()
	ptrInvolved := x.HasPtr() || y.HasPtr() || len(x.Fns()) > 0 || len(y.Fns()) > 0
	if xi.IsBot() || yi.IsBot() {
		if ptrInvolved {
			return val.FromItv(itv.OfInts(0, 1))
		}
		return val.Bot
	}
	var mayT, mayF bool
	switch op {
	case ir.Lt:
		mayT = !xi.LtFilter(yi).IsBot()
		mayF = !xi.GeFilter(yi).IsBot()
	case ir.Le:
		mayT = !xi.LeFilter(yi).IsBot()
		mayF = !xi.GtFilter(yi).IsBot()
	case ir.Gt:
		mayT = !xi.GtFilter(yi).IsBot()
		mayF = !xi.LeFilter(yi).IsBot()
	case ir.Ge:
		mayT = !xi.GeFilter(yi).IsBot()
		mayF = !xi.LtFilter(yi).IsBot()
	case ir.Eq:
		mayT = !xi.Meet(yi).IsBot()
		cx, okx := xi.Const()
		cy, oky := yi.Const()
		mayF = !(okx && oky && cx == cy)
	case ir.Ne:
		cx, okx := xi.Const()
		cy, oky := yi.Const()
		mayT = !(okx && oky && cx == cy)
		mayF = !xi.Meet(yi).IsBot()
	}
	if ptrInvolved {
		mayT, mayF = true, true
	}
	switch {
	case mayT && mayF:
		return val.FromItv(itv.OfInts(0, 1))
	case mayT:
		return val.Const(1)
	case mayF:
		return val.Const(0)
	default:
		return val.Bot
	}
}

func logicAnd(tx, ty int) val.Val {
	mayT := tx&itv.MaybeTrue != 0 && ty&itv.MaybeTrue != 0
	mayF := tx&itv.MaybeFalse != 0 || ty&itv.MaybeFalse != 0
	return boolVal(mayT, mayF)
}

func logicOr(tx, ty int) val.Val {
	mayT := tx&itv.MaybeTrue != 0 || ty&itv.MaybeTrue != 0
	mayF := tx&itv.MaybeFalse != 0 && ty&itv.MaybeFalse != 0
	return boolVal(mayT, mayF)
}

func boolVal(mayT, mayF bool) val.Val {
	switch {
	case mayT && mayF:
		return val.FromItv(itv.OfInts(0, 1))
	case mayT:
		return val.Const(1)
	case mayF:
		return val.Const(0)
	default:
		return val.Bot
	}
}

// evalBitwise soundly abstracts the bitwise operators: exact on constants,
// with cheap range reasoning for non-negative operands.
func evalBitwise(op ir.BinOp, x, y itv.Itv) val.Val {
	if x.IsBot() || y.IsBot() {
		return val.Bot
	}
	cx, okx := x.Const()
	cy, oky := y.Const()
	if okx && oky {
		switch op {
		case ir.BitAnd:
			return val.Const(cx & cy)
		case ir.BitOr:
			return val.Const(cx | cy)
		case ir.BitXor:
			return val.Const(cx ^ cy)
		case ir.Shl:
			if cy >= 0 && cy < 63 {
				return val.Const(cx << uint(cy))
			}
		case ir.Shr:
			if cy >= 0 && cy < 63 {
				return val.Const(cx >> uint(cy))
			}
		}
		return val.TopInt
	}
	nonNeg := func(v itv.Itv) bool { return v.Lo().Cmp(itv.Fin(0)) >= 0 }
	if op == ir.BitAnd && nonNeg(x) && nonNeg(y) {
		// 0 <= x & y <= min(max x, max y)
		hi := x.Hi()
		if y.Hi().Cmp(hi) < 0 {
			hi = y.Hi()
		}
		return val.FromItv(itv.Of(itv.Fin(0), hi))
	}
	if op == ir.Shr && nonNeg(x) && nonNeg(y) {
		return val.FromItv(itv.Of(itv.Fin(0), x.Hi()))
	}
	return val.TopInt
}

// ---------- store targets ----------

// storeTargets returns the locations a Store/StoreField may write, given the
// evaluated pointer value.
func (s *Sem) storeTargets(pv val.Val, field string) []ir.LocID {
	out := make([]ir.LocID, 0, len(pv.Ptr()))
	for _, t := range pv.Ptr() {
		l := t.Loc
		if field != "" {
			l = s.Prog.Locs.Field(l, field)
		}
		out = append(out, l)
	}
	return out
}

// ---------- transfer ----------

// Transfer applies f#_c for the command at pt to m. The boolean result
// reports reachability: false means the abstract state is unreachable past
// this point (a refuted assume).
func (s *Sem) Transfer(pt *ir.Point, m mem.Mem) (mem.Mem, bool) { return Transfer(s, pt, m) }

// Transfer is (*Sem).Transfer over any memory. A refuted assume returns
// M's zero value, which is bottom for mem.Mem.
func Transfer[M Memory[M]](s *Sem, pt *ir.Point, m M) (M, bool) {
	switch c := pt.Cmd.(type) {
	case ir.Set:
		v := eval(s, c.E, m)
		if s.IsSummaryLoc(c.L) {
			return m.WeakSet(c.L, v), true
		}
		return m.Set(c.L, v), true
	case ir.Store:
		pv := eval(s, c.P, m)
		v := eval(s, c.E, m)
		return store(s, m, pv, "", v), true
	case ir.StoreField:
		pv := eval(s, c.P, m)
		v := eval(s, c.E, m)
		return store(s, m, pv, c.F, v), true
	case ir.Alloc:
		n := eval(s, c.N, m).Itv()
		al := s.Prog.Locs.Alloc(c.Site)
		ptr := val.FromPtr(al, val.Region{Off: itv.Single(0), Sz: n})
		// Heap cells start indeterminate.
		m = m.WeakSet(al, val.TopInt)
		if s.IsSummaryLoc(c.L) {
			return m.WeakSet(c.L, ptr), true
		}
		return m.Set(c.L, ptr), true
	case ir.Assume:
		return assume(s, c.E, m)
	case ir.Call:
		// Argument evaluation has no state effect; formal binding happens on
		// the call→entry edge (BindFormals).
		return m, true
	case ir.RetBind:
		if c.L == ir.None {
			return m, true
		}
		callees := s.calleesOf(c.CallPt)
		if len(callees) == 0 {
			return m.Set(c.L, val.TopInt), true
		}
		v := val.Bot
		for _, p := range callees {
			rl := s.Prog.ProcByID(p).RetLoc
			if rl != ir.None {
				v = v.Join(m.Get(rl))
			} else {
				v = v.Join(val.TopInt)
			}
		}
		if s.IsSummaryLoc(c.L) {
			return m.WeakSet(c.L, v), true
		}
		return m.Set(c.L, v), true
	case ir.Return:
		pr := s.Prog.ProcByID(pt.Proc)
		if c.E != nil && pr.RetLoc != ir.None {
			v := eval(s, c.E, m)
			if s.IsSummaryLoc(pr.RetLoc) {
				return m.WeakSet(pr.RetLoc, v), true
			}
			return m.Set(pr.RetLoc, v), true
		}
		return m, true
	case ir.Entry:
		if s.EntryMarks != nil && s.Prog.ProcByID(pt.Proc).Entry == pt.ID {
			for _, l := range s.EntryMarks(pt.Proc) {
				if s.IsSummaryLoc(l) {
					m = m.WeakSet(l, val.UninitTop())
				} else {
					m = m.Set(l, val.UninitTop())
				}
			}
		}
		return m, true
	default: // Exit, Skip
		return m, true
	}
}

func store[M Memory[M]](s *Sem, m M, pv val.Val, field string, v val.Val) M {
	targets := s.storeTargets(pv, field)
	if len(targets) == 1 && !s.IsSummaryLoc(targets[0]) {
		return m.Set(targets[0], v) // strong update
	}
	for _, t := range targets {
		m = m.WeakSet(t, v)
	}
	return m
}

// BindFormals computes the memory entering callee from a call at callPt
// with memory m: m with the callee's formals bound to the argument values.
// Missing arguments bind to Unknown.
func (s *Sem) BindFormals(callPt *ir.Point, callee *ir.Proc, m mem.Mem) mem.Mem {
	return BindFormals(s, callPt, callee, m)
}

// BindFormals is (*Sem).BindFormals over any memory. Every argument is
// evaluated against the pre-call state before the first formal is bound:
// a frame updates in place, and a recursive call may pass its own formals
// (f(b, a) inside f(a, b)).
func BindFormals[M Memory[M]](s *Sem, callPt *ir.Point, callee *ir.Proc, m M) M {
	c := callPt.Cmd.(ir.Call)
	var buf [8]val.Val
	args := buf[:0]
	for i := range callee.Formals {
		v := val.TopInt
		if i < len(c.Args) {
			v = eval(s, c.Args[i], m)
		}
		args = append(args, v)
	}
	for i, f := range callee.Formals {
		// Formals are weakly updated: several call sites (and spurious
		// callees from the approximate call graph) may bind them, and the
		// sparse framework requires may-definitions to be uses (Def. 5).
		m = m.WeakSet(f, args[i])
	}
	return m
}

// ---------- assume refinement ----------

// assume filters m by the condition e. It refines interval bindings of
// variables that appear directly in comparisons, and reports false when the
// condition cannot hold.
func assume[M Memory[M]](s *Sem, e ir.Expr, m M) (M, bool) {
	t := truth(s, e, m)
	if t&itv.MaybeTrue == 0 {
		var bot M
		return bot, false
	}
	switch e := e.(type) {
	case ir.Bin:
		if e.Op.IsCmp() {
			return refineCmp(s, e, m), true
		}
		if e.Op == ir.LAnd {
			m1, ok := assume(s, e.X, m)
			if !ok {
				return m1, false
			}
			return assume(s, e.Y, m1)
		}
	case ir.Not:
		// assume(!x): x == 0
		if v, ok := e.X.(ir.VarE); ok {
			return refineVar(s, v.L, ir.Eq, itv.Single(0), m), true
		}
	case ir.VarE:
		// assume(x): x != 0
		return refineVar(s, e.L, ir.Ne, itv.Single(0), m), true
	}
	return m, true
}

// refineCmp refines both operands of a comparison when they are variables.
func refineCmp[M Memory[M]](s *Sem, e ir.Bin, m M) M {
	yv := eval(s, e.Y, m).Itv()
	if x, ok := e.X.(ir.VarE); ok && !yv.IsBot() {
		m = refineVar(s, x.L, e.Op, yv, m)
	}
	xv := eval(s, e.X, m).Itv()
	if y, ok := e.Y.(ir.VarE); ok && !xv.IsBot() {
		m = refineVar(s, y.L, e.Op.Swap(), xv, m)
	}
	return m
}

// refineVar narrows the interval of variable l under "l op bound".
func refineVar[M Memory[M]](s *Sem, l ir.LocID, op ir.BinOp, bound itv.Itv, m M) M {
	if s.IsSummaryLoc(l) {
		return m // cannot strongly refine summaries
	}
	old := m.Get(l)
	oi := old.Itv()
	var ni itv.Itv
	switch op {
	case ir.Lt:
		ni = oi.LtFilter(bound)
	case ir.Le:
		ni = oi.LeFilter(bound)
	case ir.Gt:
		ni = oi.GtFilter(bound)
	case ir.Ge:
		ni = oi.GeFilter(bound)
	case ir.Eq:
		ni = oi.EqFilter(bound)
	case ir.Ne:
		ni = oi.NeFilter(bound)
	default:
		return m
	}
	return m.Set(l, old.WithItv(ni))
}

// ---------- definition and use sets ----------

// UseOf accumulates U(e)(m): the locations read while evaluating e
// (Section 3.2's auxiliary U).
func (s *Sem) UseOf(e ir.Expr, m mem.Mem, add func(ir.LocID)) {
	switch e := e.(type) {
	case ir.VarE:
		add(e.L)
	case ir.Load:
		s.UseOf(e.P, m, add)
		pv := s.Eval(e.P, m)
		for _, t := range pv.Ptr() {
			add(t.Loc)
		}
	case ir.LoadField:
		s.UseOf(e.P, m, add)
		pv := s.Eval(e.P, m)
		for _, t := range pv.Ptr() {
			add(s.Prog.Locs.Field(t.Loc, e.F))
		}
	case ir.FieldAddr:
		s.UseOf(e.P, m, add)
	case ir.Bin:
		s.UseOf(e.X, m, add)
		s.UseOf(e.Y, m, add)
	case ir.Neg:
		s.UseOf(e.X, m, add)
	case ir.Not:
		s.UseOf(e.X, m, add)
	}
}

// LocSet is a small builder for def/use sets.
type LocSet map[ir.LocID]bool

// Add inserts l.
func (ls LocSet) Add(l ir.LocID) { ls[l] = true }

// Slice returns the elements (unordered).
func (ls LocSet) Slice() []ir.LocID {
	out := make([]ir.LocID, 0, len(ls))
	for l := range ls {
		out = append(out, l)
	}
	return out
}

// DefsUses computes the command-local D̂(c) and Û(c) at pt under the
// conservative memory m (the pre-analysis result T̂pre). Call/RetBind points
// report only their own semantic defs/uses (argument evaluation, formal
// binding, return-value delivery); the interprocedural linkage sets are
// added by the def-use-graph builder from callee summaries.
//
// The returned sets satisfy Definition 5 against any memory ⊑ m: defs
// over-approximate, uses over-approximate, and every may-definition (weak
// update target, formal, summary) is also a use.
func (s *Sem) DefsUses(pt *ir.Point, m mem.Mem) (defs, uses LocSet) {
	d, u := s.DefsUsesAppend(pt, m, nil, nil)
	defs, uses = LocSet{}, LocSet{}
	for _, l := range d {
		defs.Add(l)
	}
	for _, l := range u {
		uses.Add(l)
	}
	return defs, uses
}

// DefsUsesAppend is the allocation-light form of DefsUses: it appends the
// members of D̂(c)/Û(c) to defs and uses and returns the extended slices.
// The appended IDs may contain duplicates; callers sort and deduplicate
// (ir.DedupLocs) once per node, which is what the def-use-graph builder and
// the summary collection do with reusable scratch buffers.
func (s *Sem) DefsUsesAppend(pt *ir.Point, m mem.Mem, defs, uses []ir.LocID) ([]ir.LocID, []ir.LocID) {
	addUse := func(l ir.LocID) { uses = append(uses, l) }
	switch c := pt.Cmd.(type) {
	case ir.Set:
		defs = append(defs, c.L)
		s.UseOf(c.E, m, addUse)
		if s.IsSummaryLoc(c.L) {
			uses = append(uses, c.L) // weak update uses the old value
		}
	case ir.Store, ir.StoreField:
		var pe, ve ir.Expr
		field := ""
		if st, ok := c.(ir.Store); ok {
			pe, ve = st.P, st.E
		} else {
			sf := c.(ir.StoreField)
			pe, ve, field = sf.P, sf.E, sf.F
		}
		s.UseOf(pe, m, addUse)
		s.UseOf(ve, m, addUse)
		pv := s.Eval(pe, m)
		targets := s.storeTargets(pv, field)
		defs = append(defs, targets...)
		if len(targets) != 1 || s.IsSummaryLoc(targets[0]) {
			uses = append(uses, targets...) // weak updates use old values
		}
	case ir.Alloc:
		defs = append(defs, c.L)
		al := s.Prog.Locs.Alloc(c.Site)
		defs = append(defs, al)
		uses = append(uses, al) // weak (summary) initialization
		s.UseOf(c.N, m, addUse)
		if s.IsSummaryLoc(c.L) {
			uses = append(uses, c.L)
		}
	case ir.Assume:
		s.UseOf(c.E, m, addUse)
		for _, l := range s.refinedVars(c.E) {
			defs = append(defs, l)
			uses = append(uses, l)
		}
	case ir.Call:
		s.UseOf(c.F, m, addUse)
		for _, a := range c.Args {
			s.UseOf(a, m, addUse)
		}
		for _, p := range s.calleesOf(pt.ID) {
			for _, f := range s.Prog.ProcByID(p).Formals {
				defs = append(defs, f)
				uses = append(uses, f) // weak binding (multiple/spurious call sites)
			}
		}
	case ir.RetBind:
		if c.L != ir.None {
			defs = append(defs, c.L)
			if s.IsSummaryLoc(c.L) {
				uses = append(uses, c.L)
			}
		}
		for _, p := range s.calleesOf(c.CallPt) {
			rl := s.Prog.ProcByID(p).RetLoc
			if rl != ir.None {
				uses = append(uses, rl)
			}
		}
	case ir.Return:
		pr := s.Prog.ProcByID(pt.Proc)
		if c.E != nil && pr.RetLoc != ir.None {
			defs = append(defs, pr.RetLoc)
			s.UseOf(c.E, m, addUse)
			if s.IsSummaryLoc(pr.RetLoc) {
				uses = append(uses, pr.RetLoc)
			}
		}
	}
	return defs, uses
}

// AlwaysKills computes D_always(c) under the conservative memory m: the
// locations the command at pt overwrites on every execution (Section 2.6's
// comparison with conventional def-use chains, where only always-kills
// block a chain). Weak updates, multi-target stores, summary locations and
// interprocedural linkage never always-kill.
func (s *Sem) AlwaysKills(pt *ir.Point, m mem.Mem) LocSet {
	kills := LocSet{}
	switch c := pt.Cmd.(type) {
	case ir.Set:
		if !s.IsSummaryLoc(c.L) {
			kills.Add(c.L)
		}
	case ir.Store:
		pv := s.Eval(c.P, m)
		if ts := s.storeTargets(pv, ""); len(ts) == 1 && !s.IsSummaryLoc(ts[0]) {
			kills.Add(ts[0])
		}
	case ir.StoreField:
		pv := s.Eval(c.P, m)
		if ts := s.storeTargets(pv, c.F); len(ts) == 1 && !s.IsSummaryLoc(ts[0]) {
			kills.Add(ts[0])
		}
	case ir.Alloc:
		if !s.IsSummaryLoc(c.L) {
			kills.Add(c.L)
		}
	case ir.Assume:
		for _, l := range s.refinedVars(c.E) {
			kills.Add(l)
		}
	case ir.RetBind:
		if c.L != ir.None && !s.IsSummaryLoc(c.L) {
			kills.Add(c.L)
		}
	case ir.Return:
		pr := s.Prog.ProcByID(pt.Proc)
		if c.E != nil && pr.RetLoc != ir.None {
			kills.Add(pr.RetLoc)
		}
	}
	return kills
}

// refinedVars returns the variables an Assume may strongly refine (its
// definition set).
func (s *Sem) refinedVars(e ir.Expr) []ir.LocID {
	var out []ir.LocID
	add := func(l ir.LocID) {
		if !s.IsSummaryLoc(l) {
			out = append(out, l)
		}
	}
	switch e := e.(type) {
	case ir.Bin:
		if e.Op.IsCmp() {
			if x, ok := e.X.(ir.VarE); ok {
				add(x.L)
			}
			if y, ok := e.Y.(ir.VarE); ok {
				add(y.L)
			}
		}
		if e.Op == ir.LAnd {
			out = append(out, s.refinedVars(e.X)...)
			out = append(out, s.refinedVars(e.Y)...)
		}
	case ir.Not:
		if x, ok := e.X.(ir.VarE); ok {
			add(x.L)
		}
	case ir.VarE:
		add(e.L)
	}
	return out
}

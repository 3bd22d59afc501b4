// Package itv implements the interval abstract domain of Cousot & Cousot,
// the non-relational numeric domain used by the Interval* analyzers
// (Section 3 of the paper).
//
// An interval abstracts a set of machine integers by a lower and upper
// bound, either of which may be infinite. The domain forms a lattice with
// Bot (empty set) as bottom and [-oo,+oo] as top, and carries the standard
// widening (jump to infinity on growing bounds) and narrowing operators
// needed for terminating fixpoint computation over its infinite chains.
package itv

import (
	"fmt"
	"math"
)

// Bound is an interval endpoint: a finite int64 or +/- infinity.
// Finite bounds saturate rather than wrap on arithmetic.
type Bound struct {
	inf int8 // -1: -oo, +1: +oo, 0: finite
	n   int64
}

// NegInf and PosInf are the infinite endpoints.
var (
	NegInf = Bound{inf: -1}
	PosInf = Bound{inf: +1}
)

// Fin returns the finite bound n.
func Fin(n int64) Bound { return Bound{n: n} }

// IsNegInf reports whether b is -oo.
func (b Bound) IsNegInf() bool { return b.inf < 0 }

// IsPosInf reports whether b is +oo.
func (b Bound) IsPosInf() bool { return b.inf > 0 }

// IsFinite reports whether b is a finite integer.
func (b Bound) IsFinite() bool { return b.inf == 0 }

// Int returns the finite value of b; it panics on infinite bounds.
func (b Bound) Int() int64 {
	if b.inf != 0 {
		panic("itv: Int of infinite bound")
	}
	return b.n
}

// Cmp compares bounds: -1 if b < c, 0 if equal, +1 if b > c.
func (b Bound) Cmp(c Bound) int {
	switch {
	case b.inf < c.inf:
		return -1
	case b.inf > c.inf:
		return 1
	case b.inf != 0: // both same infinity
		return 0
	case b.n < c.n:
		return -1
	case b.n > c.n:
		return 1
	default:
		return 0
	}
}

func minB(b, c Bound) Bound {
	if b.Cmp(c) <= 0 {
		return b
	}
	return c
}

func maxB(b, c Bound) Bound {
	if b.Cmp(c) >= 0 {
		return b
	}
	return c
}

// addB adds bounds; an infinite operand dominates. The -oo + +oo case never
// arises for well-formed intervals under the operations below (lower bounds
// are only added to lower bounds, upper to upper).
func addB(b, c Bound) Bound {
	if b.inf != 0 {
		return b
	}
	if c.inf != 0 {
		return c
	}
	return Fin(satAdd(b.n, c.n))
}

func negB(b Bound) Bound {
	switch {
	case b.inf < 0:
		return PosInf
	case b.inf > 0:
		return NegInf
	default:
		if b.n == math.MinInt64 {
			return Fin(math.MaxInt64)
		}
		return Fin(-b.n)
	}
}

func satAdd(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return p
}

func mulB(b, c Bound) Bound {
	// 0 * inf = 0 by convention (abstracting the empty contribution).
	if b.IsFinite() && b.n == 0 || c.IsFinite() && c.n == 0 {
		return Fin(0)
	}
	sign := 1
	if b.inf < 0 || b.IsFinite() && b.n < 0 {
		sign = -sign
	}
	if c.inf < 0 || c.IsFinite() && c.n < 0 {
		sign = -sign
	}
	if !b.IsFinite() || !c.IsFinite() {
		if sign > 0 {
			return PosInf
		}
		return NegInf
	}
	return Fin(satMul(b.n, c.n))
}

// String renders the bound.
func (b Bound) String() string {
	switch {
	case b.inf < 0:
		return "-oo"
	case b.inf > 0:
		return "+oo"
	default:
		return fmt.Sprintf("%d", b.n)
	}
}

// Itv is an interval value. The zero value is Bot (the empty interval).
//
// The bounds are stored unboxed — two int64 values and their infinity marks —
// so an interval is 24 bytes rather than two padded Bounds. An infinite
// bound's value is always 0 and Bot is all zeros, so equal intervals are
// equal bit for bit.
type Itv struct {
	l, h       int64 // the finite bound values (0 for an infinite bound)
	linf, hinf int8  // each bound's Bound.inf: -1 for -oo, +1 for +oo, 0 if finite
	nonBot     bool
}

// mk returns the non-bottom interval [lo, hi] without checking lo <= hi.
func mk(lo, hi Bound) Itv {
	return Itv{l: lo.n, h: hi.n, linf: lo.inf, hinf: hi.inf, nonBot: true}
}

func (v Itv) lo() Bound { return Bound{inf: v.linf, n: v.l} }
func (v Itv) hi() Bound { return Bound{inf: v.hinf, n: v.h} }

// Bot is the bottom element (empty set of integers).
var Bot = Itv{}

// Top is the interval [-oo, +oo].
var Top = mk(NegInf, PosInf)

// Zero and One are the interned singletons [0,0] and [1,1], by far the most
// common constants in C programs; Single returns them so repeated literals
// share one bitwise representation and converged-state comparisons stay on
// the equal-bits fast path.
var (
	Zero = mk(Fin(0), Fin(0))
	One  = mk(Fin(1), Fin(1))
)

// Of returns the interval [lo, hi]; it panics if lo > hi.
func Of(lo, hi Bound) Itv {
	if lo.Cmp(hi) > 0 {
		panic(fmt.Sprintf("itv: malformed interval [%s,%s]", lo, hi))
	}
	return mk(lo, hi)
}

// OfInts returns the interval [lo, hi] over finite endpoints.
func OfInts(lo, hi int64) Itv { return Of(Fin(lo), Fin(hi)) }

// Single returns the singleton interval [n, n].
func Single(n int64) Itv {
	switch n {
	case 0:
		return Zero
	case 1:
		return One
	}
	return OfInts(n, n)
}

// AtLeast returns [n, +oo].
func AtLeast(n int64) Itv { return Of(Fin(n), PosInf) }

// AtMost returns [-oo, n].
func AtMost(n int64) Itv { return Of(NegInf, Fin(n)) }

// IsBot reports whether v is the empty interval.
func (v Itv) IsBot() bool { return !v.nonBot }

// IsTop reports whether v is [-oo, +oo].
func (v Itv) IsTop() bool { return v.nonBot && v.lo().IsNegInf() && v.hi().IsPosInf() }

// Lo returns the lower bound; it panics on Bot.
func (v Itv) Lo() Bound {
	if v.IsBot() {
		panic("itv: Lo of bottom")
	}
	return v.lo()
}

// Hi returns the upper bound; it panics on Bot.
func (v Itv) Hi() Bound {
	if v.IsBot() {
		panic("itv: Hi of bottom")
	}
	return v.hi()
}

// Const reports whether v is a singleton [n, n] and returns n.
func (v Itv) Const() (int64, bool) {
	if v.nonBot && v.linf == 0 && v.hinf == 0 && v.l == v.h {
		return v.l, true
	}
	return 0, false
}

// Eq reports structural equality of intervals (bitwise, see Itv).
func (v Itv) Eq(w Itv) bool { return v == w }

// LessEq reports the lattice order v ⊑ w (set inclusion).
func (v Itv) LessEq(w Itv) bool {
	if v.IsBot() {
		return true
	}
	if w.IsBot() {
		return false
	}
	return w.lo().Cmp(v.lo()) <= 0 && v.hi().Cmp(w.hi()) <= 0
}

// Join returns the least upper bound (interval hull).
func (v Itv) Join(w Itv) Itv {
	if v.IsBot() {
		return w
	}
	if w.IsBot() {
		return v
	}
	return mk(minB(v.lo(), w.lo()), maxB(v.hi(), w.hi()))
}

// Meet returns the greatest lower bound (intersection).
func (v Itv) Meet(w Itv) Itv {
	if v.IsBot() || w.IsBot() {
		return Bot
	}
	lo, hi := maxB(v.lo(), w.lo()), minB(v.hi(), w.hi())
	if lo.Cmp(hi) > 0 {
		return Bot
	}
	return mk(lo, hi)
}

// Widen returns the standard interval widening v ∇ w: bounds that grow
// from v to w jump to infinity, guaranteeing stabilization of ascending
// chains.
func (v Itv) Widen(w Itv) Itv {
	if v.IsBot() {
		return w
	}
	if w.IsBot() {
		return v
	}
	lo, hi := v.lo(), v.hi()
	if w.lo().Cmp(v.lo()) < 0 {
		lo = NegInf
	}
	if w.hi().Cmp(v.hi()) > 0 {
		hi = PosInf
	}
	return mk(lo, hi)
}

// Narrow returns the standard interval narrowing v Δ w: infinite bounds of v
// are refined to w's bounds, finite bounds are kept. Used in the descending
// phase after widening.
func (v Itv) Narrow(w Itv) Itv {
	if v.IsBot() || w.IsBot() {
		return Bot
	}
	lo, hi := v.lo(), v.hi()
	if v.lo().IsNegInf() {
		lo = w.lo()
	}
	if v.hi().IsPosInf() {
		hi = w.hi()
	}
	if lo.Cmp(hi) > 0 {
		return Bot
	}
	return mk(lo, hi)
}

// Add returns the abstract sum.
func (v Itv) Add(w Itv) Itv {
	if v.IsBot() || w.IsBot() {
		return Bot
	}
	return mk(addB(v.lo(), w.lo()), addB(v.hi(), w.hi()))
}

// Neg returns the abstract negation.
func (v Itv) Neg() Itv {
	if v.IsBot() {
		return Bot
	}
	return mk(negB(v.hi()), negB(v.lo()))
}

// Sub returns the abstract difference.
func (v Itv) Sub(w Itv) Itv { return v.Add(w.Neg()) }

// Mul returns the abstract product.
func (v Itv) Mul(w Itv) Itv {
	if v.IsBot() || w.IsBot() {
		return Bot
	}
	c1, c2, c3, c4 := mulB(v.lo(), w.lo()), mulB(v.lo(), w.hi()), mulB(v.hi(), w.lo()), mulB(v.hi(), w.hi())
	return mk(minB(minB(c1, c2), minB(c3, c4)), maxB(maxB(c1, c2), maxB(c3, c4)))
}

// Div returns a sound abstraction of C integer division. Division by an
// interval containing zero yields Top (run-time traps are not modeled as
// bottom so that the analysis stays an over-approximation of survivors).
func (v Itv) Div(w Itv) Itv {
	if v.IsBot() || w.IsBot() {
		return Bot
	}
	if w.lo().Cmp(Fin(0)) <= 0 && Fin(0).Cmp(w.hi()) <= 0 {
		// Divisor may be zero: give up rather than model the trap.
		return Top
	}
	divB := func(a, b Bound) Bound {
		if b.IsFinite() && b.n != 0 {
			if a.IsFinite() {
				return Fin(a.n / b.n)
			}
			if (a.inf > 0) == (b.n > 0) {
				return PosInf
			}
			return NegInf
		}
		// b infinite: quotient tends to 0 from either side.
		return Fin(0)
	}
	c1, c2, c3, c4 := divB(v.lo(), w.lo()), divB(v.lo(), w.hi()), divB(v.hi(), w.lo()), divB(v.hi(), w.hi())
	return mk(minB(minB(c1, c2), minB(c3, c4)), maxB(maxB(c1, c2), maxB(c3, c4)))
}

// Rem returns a sound abstraction of the C remainder a % b.
func (v Itv) Rem(w Itv) Itv {
	if v.IsBot() || w.IsBot() {
		return Bot
	}
	// |a % b| < |b| and a % b has the sign of a (C99).
	var m Bound // max(|w.lo()|, |w.hi()|) - 1
	al, ah := negB(w.lo()), w.hi()
	mx := maxB(al, ah)
	if !mx.IsFinite() {
		m = PosInf
	} else if mx.n <= 0 {
		return Top // only zero divisor possible
	} else {
		m = Fin(mx.n - 1)
	}
	res := mk(negB(m), m)
	// Restrict by sign of v.
	if v.lo().Cmp(Fin(0)) >= 0 {
		res = res.Meet(AtLeast(0))
	}
	if v.hi().Cmp(Fin(0)) <= 0 {
		res = res.Meet(AtMost(0))
	}
	if res.IsBot() {
		return Single(0)
	}
	return res
}

// LtFilter returns the largest refinement of v consistent with v < w
// (i.e., v meet [-oo, max(w)-1]).
func (v Itv) LtFilter(w Itv) Itv {
	if w.IsBot() {
		return Bot
	}
	hi := w.hi()
	if hi.IsFinite() {
		hi = Fin(satAdd(hi.n, -1))
	}
	if hi.IsNegInf() {
		return Bot
	}
	return v.Meet(mk(NegInf, hi))
}

// LeFilter refines v under v <= w.
func (v Itv) LeFilter(w Itv) Itv {
	if w.IsBot() {
		return Bot
	}
	return v.Meet(mk(NegInf, w.hi()))
}

// GtFilter refines v under v > w.
func (v Itv) GtFilter(w Itv) Itv {
	if w.IsBot() {
		return Bot
	}
	lo := w.lo()
	if lo.IsFinite() {
		lo = Fin(satAdd(lo.n, 1))
	}
	if lo.IsPosInf() {
		return Bot
	}
	return v.Meet(mk(lo, PosInf))
}

// GeFilter refines v under v >= w.
func (v Itv) GeFilter(w Itv) Itv {
	if w.IsBot() {
		return Bot
	}
	return v.Meet(mk(w.lo(), PosInf))
}

// EqFilter refines v under v == w.
func (v Itv) EqFilter(w Itv) Itv { return v.Meet(w) }

// NeFilter refines v under v != w; only singleton w at an endpoint shrinks v.
func (v Itv) NeFilter(w Itv) Itv {
	n, ok := w.Const()
	if !ok || v.IsBot() {
		return v
	}
	if v.lo().IsFinite() && v.lo().n == n {
		if v.hi().IsFinite() && v.hi().n == n {
			return Bot
		}
		return mk(Fin(n+1), v.hi())
	}
	if v.hi().IsFinite() && v.hi().n == n {
		return mk(v.lo(), Fin(n-1))
	}
	return v
}

// Truthiness classification for conditions.
const (
	MaybeFalse = 1 << iota // contains 0
	MaybeTrue              // contains a non-zero value
)

// Truth classifies v as a C condition: a bitmask of MaybeFalse/MaybeTrue.
// Bot yields 0 (neither).
func (v Itv) Truth() int {
	if v.IsBot() {
		return 0
	}
	t := 0
	if v.lo().Cmp(Fin(0)) <= 0 && Fin(0).Cmp(v.hi()) <= 0 {
		t |= MaybeFalse
	}
	if v.lo().Cmp(Fin(0)) < 0 || Fin(0).Cmp(v.hi()) < 0 {
		t |= MaybeTrue
	}
	return t
}

// String renders the interval.
func (v Itv) String() string {
	if v.IsBot() {
		return "bot"
	}
	return fmt.Sprintf("[%s,%s]", v.lo(), v.hi())
}

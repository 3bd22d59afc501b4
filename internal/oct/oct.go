// Package oct implements the octagon abstract domain of Miné (HOSC 2006)
// over machine integers: conjunctions of constraints ±x ±y ≤ c, represented
// as difference-bound matrices (DBMs) over the doubled variable set
// {+x0, -x0, +x1, -x1, ...}, with strong closure as the normal form.
//
// This is the relational domain R# of the paper's packed relational
// analysis (Section 4); each variable pack gets its own small octagon.
//
// The kernel is copy-free: an operation allocates at most the one matrix it
// returns, builds it in place, and closes it in place; it allocates nothing
// when the result is a closed argument, as in a join where one side covers
// the other. The strong closure of an octagon is computed once — closed
// octagons are their own closure, and the only unclosed octagons that leave
// the package (widening results) carry theirs from construction — so
// comparisons, joins, transfers and projections of stored values never
// re-run the cubic closure. The exception is a closure that saturated on
// bounds near ±2^62: its result is not a fixpoint of the closure, so it is
// left unclosed, and every use closes it again.
package oct

import (
	"fmt"
	"math"
	"strings"

	"sparrow/internal/lattice/itv"
)

// inf is the missing-constraint bound (+∞).
const inf = math.MaxInt64

// satAdd adds DBM bounds, saturating at +∞.
func satAdd(a, b int64) int64 {
	if a == inf || b == inf {
		return inf
	}
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return inf - 1 // stay finite but huge; never wraps
		}
		return math.MinInt64 + 1
	}
	return s
}

// Oct is an octagon over n variables. The zero value is not valid; use Top
// or Bottom. Matrices are indexed by the doubled variables: 2k is +x_k,
// 2k+1 is -x_k; m[i][j] bounds v_j - v_i.
//
// Octs are immutable from the caller's perspective: every operation returns
// a new octagon or, when the result equals one, a closed argument. Closed
// octagons with equal matrices are interchangeable (a closed matrix is its
// own closure and its own widening argument), so that sharing is exact.
type Oct struct {
	n      int
	bot    bool
	closed bool
	m      []int64 // (2n)×(2n), row-major; nil when bot
	// cl is the strong closure of an unclosed octagon, set when the octagon
	// is built; nil for closed and bottom octagons.
	cl *Oct
}

// Octagons over up to four variables (most packs) are allocated together
// with their matrix, one allocation per octagon.
type (
	oct1 struct {
		o Oct
		a [4]int64
	}
	oct2 struct {
		o Oct
		a [16]int64
	}
	oct3 struct {
		o Oct
		a [36]int64
	}
	oct4 struct {
		o Oct
		a [64]int64
	}
)

// alloc returns a non-bottom, unclosed octagon over n variables whose
// matrix the caller fills.
func alloc(n int) *Oct {
	var o *Oct
	switch n {
	case 1:
		b := new(oct1)
		b.o.m = b.a[:]
		o = &b.o
	case 2:
		b := new(oct2)
		b.o.m = b.a[:]
		o = &b.o
	case 3:
		b := new(oct3)
		b.o.m = b.a[:]
		o = &b.o
	case 4:
		b := new(oct4)
		b.o.m = b.a[:]
		o = &b.o
	default:
		o = &Oct{m: make([]int64, 4*n*n)}
	}
	o.n = n
	return o
}

// Top returns the octagon with no constraints over n variables.
func Top(n int) *Oct {
	o := alloc(n)
	for i := range o.m {
		o.m[i] = inf
	}
	d := 2 * n
	for i := 0; i < d; i++ {
		o.m[i*d+i] = 0
	}
	o.closed = true
	return o
}

// Bottom returns the empty octagon over n variables.
func Bottom(n int) *Oct { return &Oct{n: n, bot: true} }

// clone returns a private copy of o's matrix as stored (not closed), for an
// operation to build its result in.
func (o *Oct) clone() *Oct {
	if o.bot {
		return Bottom(o.n)
	}
	c := alloc(o.n)
	copy(c.m, o.m)
	c.closed = o.closed
	return c
}

// N returns the number of variables.
func (o *Oct) N() int { return o.n }

// IsBottom reports whether the octagon is empty.
func (o *Oct) IsBottom() bool { return o.bot }

func (o *Oct) at(i, j int) int64     { return o.m[i*2*o.n+j] }
func (o *Oct) set(i, j int, v int64) { o.m[i*2*o.n+j] = v }
func (o *Oct) tighten(i, j int, v int64) {
	if v < o.at(i, j) {
		o.set(i, j, v)
	}
}

// bar flips the polarity index: bar(2k) = 2k+1, bar(2k+1) = 2k.
func bar(i int) int { return i ^ 1 }

// Closed returns the strongly-closed form of o (its normal form), or a
// bottom octagon if o is unsatisfiable. The receiver is not modified. When
// the closure saturated, the result is left unclosed (not normal), and a
// later call closes it again.
func (o *Oct) Closed() *Oct {
	switch {
	case o.bot || o.closed:
		return o
	case o.cl != nil:
		return o.cl
	}
	return o.clone().closeOwned()
}

// closeOwned closes c — a matrix the current operation built and nothing
// else references — in place and returns it, or bottom when unsatisfiable.
func (c *Oct) closeOwned() *Oct {
	if !c.closeInPlace() {
		return Bottom(c.n)
	}
	return c
}

// closeInPlace runs Floyd–Warshall shortest paths plus octagonal
// strengthening and the integer tightening of unary bounds. It reports
// false when a negative cycle (emptiness) is found. The result is marked
// closed only when no path sum saturated: a sum clamped to a bound (a
// positive one where the entry had none, or any negative one) makes the
// matrix differ from the exact closure, and such a matrix is not its own
// closure — removing a variable and closing again can tighten others.
func (c *Oct) closeInPlace() bool {
	d := 2 * c.n
	m := c.m
	clamped := false
	// Floyd–Warshall.
	for k := 0; k < d; k++ {
		rowK := m[k*d : k*d+d]
		for i := 0; i < d; i++ {
			rowI := m[i*d : i*d+d]
			ik := rowI[k]
			if ik == inf {
				continue
			}
			for j, kj := range rowK {
				if kj == inf {
					continue
				}
				s := ik + kj
				if s == inf || (s < ik) != (kj < 0) {
					// The sum overflowed or reached the +∞ marker. A
					// positive one matters only where it would add a bound.
					s = satAdd(ik, kj)
					clamped = clamped || kj < 0 || rowI[j] == inf
				}
				if s < rowI[j] {
					rowI[j] = s
				}
			}
		}
	}
	// Integer tightening of unary constraints: 2x ≤ c implies x ≤ ⌊c/2⌋.
	for i := 0; i < d; i++ {
		u := c.at(bar(i), i)
		if u != inf {
			c.set(bar(i), i, 2*floorDiv(u, 2))
		}
	}
	c.strengthen(-1)
	if !c.finishDiag() {
		return false
	}
	c.closed = !clamped
	return true
}

// finishDiag is the last step of the closure: it reports false when a
// diagonal entry is negative (emptiness), and otherwise zeroes the diagonal.
func (c *Oct) finishDiag() bool {
	d := 2 * c.n
	for i := 0; i < d; i++ {
		if c.at(i, i) < 0 {
			return false
		}
		c.set(i, i, 0)
	}
	return true
}

// strengthen runs the closure's strengthening step, v_j - v_i ≤ (ub(v_ī) +
// ub(v_j)) / 2 via the unary bounds m[ī][i]/2 and m[j̄][j]/2. With x ≥ 0 it
// runs only the updates of variable x's rows and columns. No update changes
// a unary bound, so their order does not matter.
func (c *Oct) strengthen(x int) {
	d := 2 * c.n
	for i := 0; i < d; i++ {
		ui := c.at(bar(i), i)
		if ui == inf {
			continue
		}
		hi := floorDiv(ui, 2)
		row := c.m[bar(i)*d : bar(i)*d+d]
		for j := 0; j < d; j++ {
			if x >= 0 && i>>1 != x && j>>1 != x {
				continue
			}
			uj := c.at(bar(j), j)
			if uj == inf {
				continue
			}
			if s := hi + floorDiv(uj, 2); s < row[j] {
				row[j] = s
			}
		}
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// Eq reports semantic equality (on closed forms).
func (o *Oct) Eq(p *Oct) bool {
	if o == p {
		return true
	}
	oc, pc := o.Closed(), p.Closed()
	if oc.bot || pc.bot {
		return oc.bot == pc.bot
	}
	for i := range oc.m {
		if oc.m[i] != pc.m[i] {
			return false
		}
	}
	return true
}

// LessEq reports inclusion o ⊑ p (on closed forms).
func (o *Oct) LessEq(p *Oct) bool {
	if o == p {
		return true
	}
	oc := o.Closed()
	if oc.bot {
		return true
	}
	pc := p.Closed()
	if pc.bot {
		return false
	}
	for i := range oc.m {
		if oc.m[i] > pc.m[i] {
			return false
		}
	}
	return true
}

// Join returns the least upper bound (pointwise max of closed forms).
func (o *Oct) Join(p *Oct) *Oct {
	j, _ := o.JoinChanged(p)
	return j
}

// JoinChanged returns o.Join(p) together with whether the join differs
// semantically from o. The change is detected before anything is built:
// the join equals closed(o) exactly when no entry of closed(p) exceeds it,
// and then closed(o) itself is returned. When closed(p) covers closed(o)
// entrywise, the join is closed(p), returned itself. Otherwise the
// pointwise max is built in one fresh matrix (the max of two closed DBMs
// is closed; with a saturated, unclosed operand it is left unclosed).
func (o *Oct) JoinChanged(p *Oct) (*Oct, bool) {
	oc := o.Closed()
	pc := p.Closed()
	if oc.bot {
		return pc, !pc.bot
	}
	if pc.bot || oc == pc {
		return oc, false
	}
	first, covers := -1, true
	for i, v := range pc.m {
		if w := oc.m[i]; v > w {
			if first < 0 {
				first = i
			}
		} else if v < w {
			if covers = false; first >= 0 {
				break
			}
		}
	}
	if first < 0 {
		return oc, false
	}
	if covers {
		return pc, true
	}
	out := oc.clone()
	out.closed = oc.closed && pc.closed
	for i := first; i < len(out.m); i++ {
		if v := pc.m[i]; v > out.m[i] {
			out.m[i] = v
		}
	}
	return out, true
}

// Meet returns the greatest lower bound (pointwise min, then closure).
func (o *Oct) Meet(p *Oct) *Oct {
	if o.bot || p.bot {
		return Bottom(o.n)
	}
	out := o.clone()
	for i, v := range p.m {
		if v < out.m[i] {
			out.m[i] = v
		}
	}
	return out.closeOwned()
}

// Widen returns the standard octagon widening: constraints of o that p does
// not satisfy are dropped to +∞. The left argument is used as stored
// (closing it between widenings would break termination); the right is
// closed. The result keeps its unclosed matrix for the next widening and
// carries its closure, computed here once, for everything else.
func (o *Oct) Widen(p *Oct) *Oct {
	if o.bot {
		return p.Closed()
	}
	pc := p.Closed()
	if pc.bot {
		return o
	}
	out := o.clone()
	for i, v := range pc.m {
		if v > out.m[i] {
			out.m[i] = inf
		}
	}
	out.closed = false
	out.cl = out.clone().closeOwned()
	return out
}

// Narrow returns the standard narrowing: +∞ constraints of o are refined to
// p's.
func (o *Oct) Narrow(p *Oct) *Oct {
	if o.bot || p.bot {
		return Bottom(o.n)
	}
	oc, pc := o.Closed(), p.Closed()
	if oc.bot || pc.bot {
		return Bottom(o.n)
	}
	out := oc.clone()
	for i, v := range out.m {
		if v == inf {
			out.m[i] = pc.m[i]
		}
	}
	return out.closeOwned()
}

// forget clears every constraint involving variable x in place. Removing
// rows and columns of a closed DBM keeps it closed.
func (o *Oct) forget(x int) {
	d := 2 * o.n
	for _, i := range [2]int{2 * x, 2*x + 1} {
		for j := 0; j < d; j++ {
			if i != j {
				o.set(i, j, inf)
				o.set(j, i, inf)
			}
		}
	}
}

// Forget removes every constraint involving variable x (projection),
// closing first so indirect constraints between other variables survive.
func (o *Oct) Forget(x int) *Oct {
	oc := o.Closed()
	if oc.bot {
		return oc
	}
	out := oc.clone()
	out.forget(x)
	return out
}

// Interval returns the projection of variable x as an interval.
func (o *Oct) Interval(x int) itv.Itv {
	oc := o.Closed()
	if oc.bot {
		return itv.Bot
	}
	lo, hi := itv.NegInf, itv.PosInf
	if u := oc.at(bar(2*x), 2*x); u != inf { // 2x ≤ u
		hi = itv.Fin(floorDiv(u, 2))
	}
	if l := oc.at(2*x, bar(2*x)); l != inf { // -2x ≤ l
		lo = itv.Fin(-floorDiv(l, 2))
	}
	if lo.Cmp(hi) > 0 {
		return itv.Bot
	}
	return itv.Of(lo, hi)
}

// boundOf converts an interval endpoint to a DBM bound.
func hiBound(v itv.Itv) int64 {
	if v.Hi().IsPosInf() {
		return inf
	}
	return v.Hi().Int()
}

func loBound(v itv.Itv) int64 {
	if v.Lo().IsNegInf() {
		return inf
	}
	return -v.Lo().Int()
}

// AssignInterval models x := [a, b].
func (o *Oct) AssignInterval(x int, v itv.Itv) *Oct {
	r, _ := o.assignInterval(x, v)
	return r
}

// WeakAssignInterval models the weak update of x with [a, b]: o joined with
// o.AssignInterval(x, v), built in the assignment's matrix.
func (o *Oct) WeakAssignInterval(x int, v itv.Itv) *Oct {
	return o.weak(o.assignInterval(x, v))
}

// AssignAddVar models x := ±y + [a, b] exactly (the octagon-expressible
// assignments). neg selects -y. For y == x the bounds are shifted in place
// (after negating x when neg), keeping all relations.
func (o *Oct) AssignAddVar(x, y int, neg bool, v itv.Itv) *Oct {
	r, _ := o.assignAddVar(x, y, neg, v)
	return r
}

// WeakAssignAddVar models the weak update of x with ±y + [a, b]: o joined
// with o.AssignAddVar(x, y, neg, v), built in the assignment's matrix.
func (o *Oct) WeakAssignAddVar(x, y int, neg bool, v itv.Itv) *Oct {
	return o.weak(o.assignAddVar(x, y, neg, v))
}

// weak joins r, the result of an assignment to o, with o. When fresh, r's
// matrix belongs to this operation and takes the pointwise max in place.
func (o *Oct) weak(r *Oct, fresh bool) *Oct {
	if !fresh {
		return o.Join(r)
	}
	oc := o.Closed()
	switch {
	case oc.bot:
		return r
	case r.bot:
		return oc
	}
	r.closed = r.closed && oc.closed
	for i, v := range oc.m {
		if v > r.m[i] {
			r.m[i] = v
		}
	}
	return r
}

// assignInterval is AssignInterval; fresh reports that the result was built
// by this call and is referenced by nothing else.
func (o *Oct) assignInterval(x int, v itv.Itv) (r *Oct, fresh bool) {
	if o.bot {
		return o, false
	}
	if v.IsBot() {
		return Bottom(o.n), true
	}
	oc := o.Closed()
	if oc.bot {
		return oc, false
	}
	out := oc.clone()
	out.forget(x)
	h, l := hiBound(v), loBound(v)
	if h != inf {
		out.set(bar(2*x), 2*x, 2*h) // 2x ≤ 2h
	}
	if l != inf {
		out.set(2*x, bar(2*x), 2*l) // -2x ≤ -2a
	}
	if !oc.closed || !oc.exact() || !out.exact() {
		return out.closeOwned(), true
	}
	// The rest of out is the closed oc with x forgotten, and x's only
	// constraints are its two unary bounds, which satisfy 2h + 2l ≥ 0. On
	// such a matrix Floyd–Warshall and the integer tightening change
	// nothing, and strengthening changes only x's rows and columns.
	out.strengthen(x)
	if !out.finishDiag() {
		return Bottom(out.n), true
	}
	out.closed = true
	return out, true
}

// exact reports whether every finite bound of c is below 2^61 in
// magnitude, so that no sum of the closure saturates and the replay in
// assignInterval, which adds nothing, agrees with the full closure; x's
// doubled bounds, when they wrapped to small values, are ordinary bounds
// to both algorithms.
func (c *Oct) exact() bool {
	for _, b := range c.m {
		if b != inf && (b >= 1<<61 || b <= -(1<<61)) {
			return false
		}
	}
	return true
}

// assignAddVar is AssignAddVar, with fresh as in assignInterval.
func (o *Oct) assignAddVar(x, y int, neg bool, v itv.Itv) (r *Oct, fresh bool) {
	if o.bot {
		return o, false
	}
	if v.IsBot() {
		return Bottom(o.n), true
	}
	oc := o.Closed()
	if oc.bot {
		return oc, false
	}
	out := oc.clone()
	if x == y {
		if neg {
			out.negate(x)
		}
		out.shift(x, v)
		return out.closeOwned(), true
	}
	a, b := v.Lo(), v.Hi()
	out.forget(x)
	py, ny := 2*y, 2*y+1
	if neg {
		py, ny = ny, py // x relates to -y
	}
	// x - y' ≤ b  and  y' - x ≤ -a  (y' = ±y)
	if b.IsFinite() {
		out.set(py, 2*x, b.Int())           // v_x - v_y' ≤ b
		out.set(bar(2*x), bar(py), b.Int()) // v_ȳ' - v_x̄ ≤ b (coherent dual)
	}
	if a.IsFinite() {
		out.set(2*x, py, -a.Int())
		out.set(bar(py), bar(2*x), -a.Int())
	}
	return out.closeOwned(), true
}

// negate models x := -x exactly by swapping the +x and -x rows and columns
// in place; a row/column permutation of a closed DBM stays closed.
func (o *Oct) negate(x int) {
	d := 2 * o.n
	px, nx := 2*x, 2*x+1
	for j := 0; j < d; j++ {
		o.m[px*d+j], o.m[nx*d+j] = o.m[nx*d+j], o.m[px*d+j]
	}
	for i := 0; i < d; i++ {
		o.m[i*d+px], o.m[i*d+nx] = o.m[i*d+nx], o.m[i*d+px]
	}
}

// shift models x := x + [a, b] in place, leaving the matrix to be closed.
// Each entry it writes depends only on that entry's own old value.
func (o *Oct) shift(x int, v itv.Itv) {
	d := 2 * o.n
	px, nx := 2*x, 2*x+1
	a, b := v.Lo(), v.Hi()
	addB := func(c int64, delta itv.Bound, plus bool) int64 {
		if c == inf || !delta.IsFinite() {
			return inf
		}
		if plus {
			return satAdd(c, delta.Int())
		}
		return satAdd(c, -delta.Int())
	}
	for j := 0; j < d; j++ {
		if j == px || j == nx {
			continue
		}
		// x_new = x_old + δ, δ ∈ [a,b]:
		// v_j - x_new = v_j - x_old - δ ≤ c - a (largest when δ smallest).
		o.set(px, j, addB(o.at(px, j), a, false))
		// x_new - v_j ≤ c + b
		o.set(j, px, addB(o.at(j, px), b, true))
		// v_j - (-x_new) = v_j + x_new ≤ c + b
		o.set(nx, j, addB(o.at(nx, j), b, true))
		// -x_new - v_j ≤ c - a
		o.set(j, nx, addB(o.at(j, nx), a, false))
	}
	// Unary bounds: 2x ≤ c + 2b ; -2x ≤ c - 2a.
	if c := o.at(nx, px); c != inf {
		if b.IsFinite() {
			o.set(nx, px, satAdd(c, 2*b.Int()))
		} else {
			o.set(nx, px, inf)
		}
	}
	if c := o.at(px, nx); c != inf {
		if a.IsFinite() {
			o.set(px, nx, satAdd(c, -2*a.Int()))
		} else {
			o.set(px, nx, inf)
		}
	}
}

// TestOp enumerates the octagon test constraints.
type TestOp uint8

// Test constraint forms over variables x, y and constant c.
const (
	XMinusYLe TestOp = iota // x - y ≤ c
	XPlusYLe                // x + y ≤ c
	XLe                     // x ≤ c
	XGe                     // x ≥ c
)

// Constraint is a single test constraint, the unit of batched assumption.
type Constraint struct {
	Op   TestOp
	X, Y int
	C    int64
}

// apply tightens the matrix entries of c's constraint without closing.
func (o *Oct) apply(c Constraint) {
	switch c.Op {
	case XMinusYLe:
		o.tighten(2*c.Y, 2*c.X, c.C)
		o.tighten(bar(2*c.X), bar(2*c.Y), c.C)
	case XPlusYLe:
		o.tighten(bar(2*c.Y), 2*c.X, c.C)
		o.tighten(bar(2*c.X), 2*c.Y, c.C)
	case XLe:
		o.tighten(bar(2*c.X), 2*c.X, 2*c.C)
	case XGe:
		o.tighten(2*c.X, bar(2*c.X), -2*c.C)
	}
}

// Assume adds the constraint to the octagon and reports the closed result
// (bottom when unsatisfiable).
func (o *Oct) Assume(op TestOp, x, y int, c int64) *Oct {
	return o.AssumeAll(Constraint{Op: op, X: x, Y: y, C: c})
}

// AssumeAll adds every constraint and closes once (bottom when jointly
// unsatisfiable). Closure is a closure operator, so one strong closure over
// the accumulated tightenings reaches the same normal form as re-closing
// after each constraint — AssumeAll(c1, c2) equals Assume(c1).Assume(c2) —
// while paying the cubic Floyd–Warshall pass a single time per batch.
func (o *Oct) AssumeAll(cs ...Constraint) *Oct {
	if o.bot || len(cs) == 0 {
		return o
	}
	out := o.clone()
	for _, c := range cs {
		out.apply(c)
	}
	return out.closeOwned()
}

// String renders the non-trivial constraints of the closed form.
func (o *Oct) String() string {
	oc := o.Closed()
	if oc.bot {
		return "bot"
	}
	var parts []string
	for x := 0; x < o.n; x++ {
		iv := oc.Interval(x)
		if !iv.IsTop() {
			parts = append(parts, fmt.Sprintf("x%d in %s", x, iv))
		}
		for y := x + 1; y < o.n; y++ {
			if c := oc.at(2*y, 2*x); c != inf { // x - y ≤ c
				parts = append(parts, fmt.Sprintf("x%d-x%d<=%d", x, y, c))
			}
			if c := oc.at(2*x, 2*y); c != inf {
				parts = append(parts, fmt.Sprintf("x%d-x%d<=%d", y, x, c))
			}
			if c := oc.at(bar(2*y), 2*x); c != inf {
				parts = append(parts, fmt.Sprintf("x%d+x%d<=%d", x, y, c))
			}
			if c := oc.at(2*y, bar(2*x)); c != inf {
				parts = append(parts, fmt.Sprintf("-x%d-x%d<=%d", x, y, c))
			}
		}
	}
	if len(parts) == 0 {
		return "top"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Package oct implements the octagon abstract domain of Miné (HOSC 2006)
// over machine integers: conjunctions of constraints ±x ±y ≤ c, represented
// as difference-bound matrices (DBMs) over the doubled variable set
// {+x0, -x0, +x1, -x1, ...}, with strong closure as the normal form.
//
// This is the relational domain R# of the paper's packed relational
// analysis (Section 4); each variable pack gets its own small octagon.
//
// Only the lower half of each DBM is stored. By coherence (m[i][j] =
// m[j̄][ī], the two entries bound the same constraint) the entries (i, j)
// with j ≤ i|1 determine the rest: 2n(n+1) of the (2n)² entries, 220 of
// 400 for a ten-variable pack. Octagons over up to four variables carry
// their 4, 12, 24 or 40 entries in the same allocation as their header.
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
// 2k+1 is -x_k; m[i][j] bounds v_j - v_i. Row i stores the entries
// j ≤ i|1 from position (i+1)²/2 on; an entry above the half is read
// through its coherent dual (j̄, ī).
//
// Octs are immutable from the caller's perspective: every operation returns
// a new octagon or, when the result equals one, a closed argument. Closed
// octagons with equal matrices are interchangeable (a closed matrix is its
// own closure and its own widening argument), so that sharing is exact.
type Oct struct {
	n      int
	bot    bool
	closed bool
	m      []int64 // lower half, 2n(n+1) entries row by row; nil when bot
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
		a [12]int64
	}
	oct3 struct {
		o Oct
		a [24]int64
	}
	oct4 struct {
		o Oct
		a [40]int64
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
		o = &Oct{m: make([]int64, 2*n*(n+1))}
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
	for i := 0; i < 2*n; i++ {
		o.row(i)[i] = 0
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

// row returns the stored entries of row i, (i, j) for j ≤ i|1.
func (o *Oct) row(i int) []int64 {
	s := (i + 1) * (i + 1) / 2
	return o.m[s : s+(i|1)+1]
}

// pos returns the position of entry (i, j), or of its coherent dual (j̄, ī)
// when (i, j) lies above the half.
func pos(i, j int) int {
	if j > i|1 {
		i, j = j^1, i^1
	}
	return j + (i+1)*(i+1)/2
}

func (o *Oct) at(i, j int) int64     { return o.m[pos(i, j)] }
func (o *Oct) set(i, j int, v int64) { o.m[pos(i, j)] = v }
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

// closeInPlace runs the strong closure: Floyd–Warshall shortest paths over
// one variable's pivot pair 2k, 2k+1 at a time, the integer tightening of
// unary bounds, and octagonal strengthening. It reports false when a
// negative cycle (emptiness) is found. The result is marked closed only
// when no path sum saturated: a sum clamped to a bound (a positive one
// where the entry had none, or any negative one) makes the matrix differ
// from the exact closure, and such a matrix is not its own closure —
// removing a variable and closing again can tighten others.
//
// Each pair step first closes the two pivot rows against each other, then
// lowers every stored entry by the paths through either pivot. Every sum
// of the step adds two pivot-row bounds, so when those lie strictly
// between ±2^62 no sum saturates, and the step computes exactly what the
// single pivots 2k and 2k+1 of Floyd–Warshall compute on the full
// matrix. A step whose pivot rows leave that range hands the matrix to
// closeWide, which goes on from its first pivot. closeWide(0) alone would
// also be exact, but it relaxes every entry once per pivot rather than once
// per pair, and the octagon fixpoint ran about 25% slower with it
// (DESIGN §33).
func (c *Oct) closeInPlace() bool {
	// Scratch for packs of up to ten variables stays on the stack, in
	// arrays sized to the pack: zeroing the largest would take a good part
	// of a small pack's closure.
	d := 2 * c.n
	switch {
	case d <= 8:
		var rows [2 * 8]int64
		var cols [8]int32
		return c.closePairs(rows[:], cols[:0])
	case d <= 20:
		var rows [2 * 20]int64
		var cols [20]int32
		return c.closePairs(rows[:], cols[:0])
	}
	return c.closePairs(make([]int64, 2*d), make([]int32, 0, d))
}

// closePairs is closeInPlace with scratch for two full rows and a column
// list.
func (c *Oct) closePairs(scratch []int64, act []int32) bool {
	d := 2 * c.n
	pr, qr := scratch[:d], scratch[d:2*d]
	for p := 0; p < d; p += 2 {
		var ok bool
		if act, ok = pivotRows(c.m, p, pr, qr, act[:0]); !ok {
			return c.closeWide(p)
		}
		if pr[p] < 0 || qr[p+1] < 0 {
			return false // a negative cycle through the pivots
		}
		if len(act) > 2 {
			// The pivots' own columns alone change nothing: their
			// entries are the closed pivot rows already.
			relax(c.m, pr, qr, act)
		}
	}
	return c.finishClosure(false)
}

// pivotRows loads into pr and qr the full rows of the pivot pair p, p+1 of
// the half matrix m, closed over the pair (p → p+1 → j and p+1 → p → j),
// and appends to act, in increasing order, the columns j where either row
// is finite. It reports whether every finite bound of the rows lies
// strictly between ±2^60. Then the closed rows' bounds, each at most the
// sum of three of those, lie strictly between ±2^62, and every sum of the
// pair step adds two of them, so none saturates.
func pivotRows(m []int64, p int, pr, qr []int64, act []int32) ([]int32, bool) {
	q := p + 1
	// Rows p and q are stored up to column q; beyond it, m[p][j] = m[j̄][q]
	// and m[q][j] = m[j̄][p] are read in the rows below.
	start := (p + 1) * (p + 1) / 2
	rp, rq := m[start:start+q+1], m[start+q+1:start+2*q+2]
	for j, v := range rp {
		pr[j], qr[j] = v, rq[j]
	}
	start += 2*q + 2
	for i := q + 1; i < len(pr); i++ {
		pr[i^1], qr[i^1] = m[start+q], m[start+p]
		start += (i | 1) + 1
	}
	pq, qp := pr[q], qr[p]
	// Adding 1 wraps the +∞ marker to the smallest int64, out of the
	// maximum's way. When a bound is out of range, the sums may wrap, but
	// then the caller discards the rows.
	lo, hi := int64(0), int64(0)
	for j, a := range pr {
		b := qr[j]
		hi, lo = max(hi, a+1, b+1), min(lo, a, b)
		if pq != inf && b != inf && pq+b < a {
			a = pq + b
			pr[j] = a
		}
		if qp != inf && a != inf && qp+a < b {
			b = qp + a
			qr[j] = b
		}
		if a != inf || b != inf {
			act = append(act, int32(j))
		}
	}
	return act, hi <= 1<<60 && lo > -(1<<60)
}

// relax lowers every entry (i, j) of the half matrix m by the paths
// through the pivot pair whose closed full rows are pr and qr: m[i][p] +
// m[p][j], with m[i][p] = m[p̄][ī] = qr[ī], and m[i][q] + m[q][j], with
// m[i][q] = pr[ī]. Only the rows and columns in act, where a pivot row is
// finite, can change. act is increasing, and so is the length of row ī
// along it, so the columns of each row are a growing prefix of act; a row
// reached through only one pivot skips the other's sums.
func relax(m, pr, qr []int64, act []int32) {
	k := 0
	for _, i1 := range act {
		i := int(i1) ^ 1
		a, b := qr[i1], pr[i1]
		start := (i + 1) * (i + 1) / 2
		r := m[start : start+(i|1)+1]
		for k < len(act) && int(act[k]) < len(r) {
			k++
		}
		switch {
		case a == inf:
			for _, j := range act[:k] {
				if y := qr[j]; y != inf {
					r[j] = min(r[j], b+y)
				}
			}
		case b == inf:
			for _, j := range act[:k] {
				if x := pr[j]; x != inf {
					r[j] = min(r[j], a+x)
				}
			}
		default:
			for _, j := range act[:k] {
				v := r[j]
				if x := pr[j]; x != inf {
					v = min(v, a+x)
				}
				if y := qr[j]; y != inf {
					v = min(v, b+y)
				}
				r[j] = v
			}
		}
	}
}

// closeWide finishes the closure of a matrix with bounds near ±2^62, where
// path sums may saturate and whether they do depends on the order of the
// sums. It runs Floyd–Warshall over the single pivots from pivot from on
// on the expanded matrix, which saturates exactly where that order does,
// and stores back the looser entry of each coherent pair (saturation can
// leave the two apart).
func (c *Oct) closeWide(from int) bool {
	d := 2 * c.n
	m := make([]int64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			m[i*d+j] = c.at(i, j)
		}
	}
	clamped := false
	for k := from; k < d; k++ {
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
	for i := 0; i < d; i++ {
		r := c.row(i)
		for j := range r {
			v := m[i*d+j]
			if w := m[(j^1)*d+(i^1)]; j != i && w > v {
				v = w
			}
			r[j] = v
		}
	}
	return c.finishClosure(clamped)
}

// finishClosure ends a closure after its shortest paths: the integer
// tightening of unary constraints (2x ≤ c implies x ≤ ⌊c/2⌋),
// strengthening, and the emptiness check on the diagonal. clamped reports
// that a path sum saturated, which leaves the result unclosed.
func (c *Oct) finishClosure(clamped bool) bool {
	for i := 0; i < 2*c.n; i++ {
		if k := pos(bar(i), i); c.m[k] != inf {
			c.m[k] = 2 * floorDiv(c.m[k], 2)
		}
	}
	c.strengthen(-1)
	if !c.finishDiag() {
		return false
	}
	c.closed = !clamped
	return true
}

// strengthen runs the closure's strengthening step on the half, v_j - v_i
// ≤ (ub(v_ī) + ub(v_j)) / 2 via the unary bounds m[ī][i]/2 and m[j̄][j]/2;
// the coherent dual of an entry gets the same bound. With x ≥ 0 it runs
// only the updates of variable x's entries. No update changes a unary
// bound, so their order does not matter.
func (c *Oct) strengthen(x int) {
	d := 2 * c.n
	var half []int64
	switch {
	case d <= 8:
		var buf [8]int64
		half = buf[:d]
	case d <= 20:
		var buf [20]int64
		half = buf[:d]
	default:
		half = make([]int64, d)
	}
	for i := range half {
		half[i] = inf
		if u := c.at(bar(i), i); u != inf {
			half[i] = floorDiv(u, 2)
		}
	}
	for i := 0; i < d; i++ {
		hi := half[bar(i)]
		if hi == inf {
			continue
		}
		r := c.row(i)
		for j, hj := range half[:len(r)] {
			if x >= 0 && i>>1 != x && j>>1 != x {
				continue
			}
			if hj != inf && hi+hj < r[j] {
				r[j] = hi + hj
			}
		}
	}
}

// finishDiag is the last step of the closure: it reports false when a
// diagonal entry is negative (emptiness), and otherwise zeroes the diagonal.
func (c *Oct) finishDiag() bool {
	for i := 0; i < 2*c.n; i++ {
		r := c.row(i)
		if r[i] < 0 {
			return false
		}
		r[i] = 0
	}
	return true
}

// doubled returns the DBM bound 2c, or -2c with neg, rounded up where it
// leaves the finite range: to +∞ (no bound) above the largest finite bound,
// and to the smallest finite bound below. Every doubled bound (a unary
// constraint 2x ≤ 2c built from an interval endpoint or a test constant)
// goes through it. Wrapping instead is unsound: x := [MinInt64, MaxInt64],
// the result of saturated interval arithmetic, would become x ≥ 0 ∧ x ≤ -1.
func doubled(c int64, neg bool) int64 {
	if neg {
		c = negated(c)
	}
	switch {
	case c >= 1<<62:
		return inf
	case c <= -(1 << 62):
		return math.MinInt64 + 1
	}
	return 2 * c
}

// negated returns the DBM bound -c of a finite constant c, rounded up to +∞
// (no bound) where it leaves the int64 range: -MinInt64 would wrap to
// MinInt64, the tightest bound there is.
func negated(c int64) int64 {
	if c == math.MinInt64 {
		return inf
	}
	return -c
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
	// One pass without data-dependent branches: does some entry of pc
	// exceed oc's, and does some entry fall below it?
	var above, below uint8
	om := oc.m[:len(pc.m)]
	for i, v := range pc.m {
		w := om[i]
		above |= b2u(v > w)
		below |= b2u(v < w)
	}
	if above == 0 {
		return oc, false
	}
	if below == 0 {
		return pc, true
	}
	out := oc.clone()
	out.closed = oc.closed && pc.closed
	for i, v := range pc.m {
		out.m[i] = max(out.m[i], v)
	}
	return out, true
}

// b2u is 1 for true and 0 for false, without a branch.
func b2u(b bool) uint8 {
	var u uint8
	if b {
		u = 1
	}
	return u
}

// Meet returns the greatest lower bound (pointwise min, then closure).
func (o *Oct) Meet(p *Oct) *Oct {
	if o.bot || p.bot {
		return Bottom(o.n)
	}
	out := o.clone()
	for i, v := range p.m {
		out.m[i] = min(out.m[i], v)
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

// forget clears every constraint involving variable x in place: x's two
// rows and the two columns below them. Removing rows and columns of a
// closed DBM keeps it closed.
func (o *Oct) forget(x int) {
	px, nx := 2*x, 2*x+1
	rp, rn := o.row(px), o.row(nx)
	for j := range rp {
		if j != px {
			rp[j] = inf
		}
		if j != nx {
			rn[j] = inf
		}
	}
	for i := nx + 1; i < 2*o.n; i++ {
		r := o.row(i)
		r[px], r[nx] = inf, inf
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
		r.m[i] = max(r.m[i], v)
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
	h, l, rounded := doubledBounds(v)
	out.set(bar(2*x), 2*x, h) // 2x ≤ 2b
	out.set(2*x, bar(2*x), l) // -2x ≤ -2a
	if rounded || !oc.closed || !oc.exact() || !exactBound(h) || !exactBound(l) {
		return out.closeOwned(), true
	}
	// The rest of out is the closed oc with x forgotten, and x's only
	// constraints are its two unary bounds, which satisfy 2h + 2l ≥ 0. On
	// such a matrix Floyd–Warshall and the integer tightening change
	// nothing, and strengthening changes only x's entries.
	out.strengthen(x)
	if !out.finishDiag() {
		return Bottom(out.n), true
	}
	out.closed = true
	return out, true
}

// doubledBounds returns the DBM bounds of x ∈ v as the unary constraints
// 2x ≤ h and -2x ≤ l (+∞ for an infinite endpoint), and whether doubling an
// endpoint had to round, which sends assignInterval to the full closure.
func doubledBounds(v itv.Itv) (h, l int64, rounded bool) {
	h, l = inf, inf
	if b := v.Hi(); b.IsFinite() {
		h = doubled(b.Int(), false)
		rounded = h == inf || h == math.MinInt64+1
	}
	if a := v.Lo(); a.IsFinite() {
		l = doubled(a.Int(), true)
		rounded = rounded || l == inf || l == math.MinInt64+1
	}
	return h, l, rounded
}

// exact reports whether every finite bound of c is below 2^61 in
// magnitude, so that no sum of the closure saturates and the replay in
// assignInterval, which adds nothing, agrees with the full closure.
// The rest of out is oc's, so assignInterval checks only x's two new
// bounds on it.
func (c *Oct) exact() bool {
	for _, b := range c.m {
		if b != inf && (b >= 1<<61 || b <= -(1<<61)) {
			return false
		}
	}
	return true
}

func exactBound(b int64) bool { return b == inf || -(1<<61) < b && b < 1<<61 }

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
		out.set(py, 2*x, b.Int())
	}
	if a.IsFinite() {
		out.set(2*x, py, negated(a.Int()))
	}
	return out.closeOwned(), true
}

// negate models x := -x exactly by swapping the +x and -x rows and columns
// in place; a row/column permutation of a closed DBM stays closed. On the
// half this swaps x's two rows, the two columns below them, and x's unary
// bounds and diagonal entries with each other.
func (o *Oct) negate(x int) {
	px, nx := 2*x, 2*x+1
	rp, rn := o.row(px), o.row(nx)
	for j := 0; j < px; j++ {
		rp[j], rn[j] = rn[j], rp[j]
	}
	rp[px], rn[nx] = rn[nx], rp[px]
	rp[nx], rn[px] = rn[px], rp[nx]
	for i := nx + 1; i < 2*o.n; i++ {
		r := o.row(i)
		r[px], r[nx] = r[nx], r[px]
	}
}

// shift models x := x + [a, b] in place, leaving the matrix to be closed.
// Each entry it writes depends only on that entry's own old value.
func (o *Oct) shift(x int, v itv.Itv) {
	px, nx := 2*x, 2*x+1
	a, b := v.Lo(), v.Hi()
	addB := func(c int64, delta itv.Bound, plus bool) int64 {
		if c == inf || !delta.IsFinite() {
			return inf
		}
		if plus {
			return satAdd(c, delta.Int())
		}
		return satAdd(c, negated(delta.Int()))
	}
	// x_new = x_old + δ, δ ∈ [a,b].
	rp, rn := o.row(px), o.row(nx)
	for j := 0; j < px; j++ {
		// v_j - x_new = v_j - x_old - δ ≤ c - a (largest when δ smallest).
		rp[j] = addB(rp[j], a, false)
		// v_j - (-x_new) = v_j + x_new ≤ c + b
		rn[j] = addB(rn[j], b, true)
	}
	for i := nx + 1; i < 2*o.n; i++ {
		r := o.row(i)
		r[px] = addB(r[px], b, true)  // x_new - v_i ≤ c + b
		r[nx] = addB(r[nx], a, false) // -x_new - v_i ≤ c - a
	}
	// Unary bounds: 2x ≤ c + 2b ; -2x ≤ c - 2a.
	if c := rn[px]; c != inf {
		if b.IsFinite() {
			rn[px] = satAdd(c, doubled(b.Int(), false))
		} else {
			rn[px] = inf
		}
	}
	if c := rp[nx]; c != inf {
		if a.IsFinite() {
			rp[nx] = satAdd(c, doubled(a.Int(), true))
		} else {
			rp[nx] = inf
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
		if c.X == c.Y {
			// x - x ≤ c bounds both diagonal entries of x, which the
			// half stores apart.
			o.tighten(bar(2*c.X), bar(2*c.X), c.C)
		}
	case XPlusYLe:
		o.tighten(bar(2*c.Y), 2*c.X, c.C)
	case XLe:
		o.tighten(bar(2*c.X), 2*c.X, doubled(c.C, false))
	case XGe:
		o.tighten(2*c.X, bar(2*c.X), doubled(c.C, true))
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

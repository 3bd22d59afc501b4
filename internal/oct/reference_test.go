package oct

import "sparrow/internal/lattice/itv"

// This file keeps the full-matrix octagon kernel the half-matrix layout
// replaced, as the reference TestHalfMatchesFull and FuzzOctOps compare
// against. refOct stores all (2n)² DBM entries row-major (m[i][j] bounds
// v_j - v_i), writes both entries of each coherent pair, and closes with
// Floyd–Warshall over the 2n single pivots; otherwise every operation is
// the production one, doubled bounds included.

// refClamps counts the reference closures whose path sums saturated.
var refClamps int

func refAlloc(n int) *refOct {
	return &refOct{n: n, m: make([]int64, 4*n*n)}
}

type refOct struct {
	n      int
	bot    bool
	closed bool
	m      []int64 // (2n)×(2n), row-major; nil when bot
	// cl is the strong closure of an unclosed octagon, set when the octagon
	// is built; nil for closed and bottom octagons.
	cl *refOct
}

func refTop(n int) *refOct {
	o := refAlloc(n)
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

func refBottom(n int) *refOct { return &refOct{n: n, bot: true} }

func (o *refOct) clone() *refOct {
	if o.bot {
		return refBottom(o.n)
	}
	c := refAlloc(o.n)
	copy(c.m, o.m)
	c.closed = o.closed
	return c
}

func (o *refOct) at(i, j int) int64     { return o.m[i*2*o.n+j] }
func (o *refOct) set(i, j int, v int64) { o.m[i*2*o.n+j] = v }
func (o *refOct) tighten(i, j int, v int64) {
	if v < o.at(i, j) {
		o.set(i, j, v)
	}
}

func (o *refOct) Closed() *refOct {
	switch {
	case o.bot || o.closed:
		return o
	case o.cl != nil:
		return o.cl
	}
	return o.clone().closeOwned()
}

func (c *refOct) closeOwned() *refOct {
	if !c.closeInPlace() {
		return refBottom(c.n)
	}
	return c
}

func (c *refOct) closeInPlace() bool {
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
	if clamped {
		refClamps++
	}
	c.closed = !clamped
	return true
}

func (c *refOct) finishDiag() bool {
	d := 2 * c.n
	for i := 0; i < d; i++ {
		if c.at(i, i) < 0 {
			return false
		}
		c.set(i, i, 0)
	}
	return true
}

func (c *refOct) strengthen(x int) {
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

func (o *refOct) Eq(p *refOct) bool {
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

func (o *refOct) LessEq(p *refOct) bool {
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

func (o *refOct) Join(p *refOct) *refOct {
	j, _ := o.JoinChanged(p)
	return j
}

func (o *refOct) JoinChanged(p *refOct) (*refOct, bool) {
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

func (o *refOct) Meet(p *refOct) *refOct {
	if o.bot || p.bot {
		return refBottom(o.n)
	}
	out := o.clone()
	for i, v := range p.m {
		if v < out.m[i] {
			out.m[i] = v
		}
	}
	return out.closeOwned()
}

func (o *refOct) Widen(p *refOct) *refOct {
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

func (o *refOct) Narrow(p *refOct) *refOct {
	if o.bot || p.bot {
		return refBottom(o.n)
	}
	oc, pc := o.Closed(), p.Closed()
	if oc.bot || pc.bot {
		return refBottom(o.n)
	}
	out := oc.clone()
	for i, v := range out.m {
		if v == inf {
			out.m[i] = pc.m[i]
		}
	}
	return out.closeOwned()
}

func (o *refOct) forget(x int) {
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

func (o *refOct) Forget(x int) *refOct {
	oc := o.Closed()
	if oc.bot {
		return oc
	}
	out := oc.clone()
	out.forget(x)
	return out
}

func (o *refOct) Interval(x int) itv.Itv {
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

func (o *refOct) AssignInterval(x int, v itv.Itv) *refOct {
	r, _ := o.assignInterval(x, v)
	return r
}

func (o *refOct) WeakAssignInterval(x int, v itv.Itv) *refOct {
	return o.weak(o.assignInterval(x, v))
}

func (o *refOct) AssignAddVar(x, y int, neg bool, v itv.Itv) *refOct {
	r, _ := o.assignAddVar(x, y, neg, v)
	return r
}

func (o *refOct) WeakAssignAddVar(x, y int, neg bool, v itv.Itv) *refOct {
	return o.weak(o.assignAddVar(x, y, neg, v))
}

func (o *refOct) weak(r *refOct, fresh bool) *refOct {
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

func (o *refOct) assignInterval(x int, v itv.Itv) (r *refOct, fresh bool) {
	if o.bot {
		return o, false
	}
	if v.IsBot() {
		return refBottom(o.n), true
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
	if rounded || !oc.closed || !oc.exact() || !out.exact() {
		return out.closeOwned(), true
	}
	// The rest of out is the closed oc with x forgotten, and x's only
	// constraints are its two unary bounds, which satisfy 2h + 2l ≥ 0. On
	// such a matrix Floyd–Warshall and the integer tightening change
	// nothing, and strengthening changes only x's rows and columns.
	out.strengthen(x)
	if !out.finishDiag() {
		return refBottom(out.n), true
	}
	out.closed = true
	return out, true
}

func (c *refOct) exact() bool {
	for _, b := range c.m {
		if b != inf && (b >= 1<<61 || b <= -(1<<61)) {
			return false
		}
	}
	return true
}

func (o *refOct) assignAddVar(x, y int, neg bool, v itv.Itv) (r *refOct, fresh bool) {
	if o.bot {
		return o, false
	}
	if v.IsBot() {
		return refBottom(o.n), true
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
		out.set(2*x, py, negated(a.Int()))
		out.set(bar(py), bar(2*x), negated(a.Int()))
	}
	return out.closeOwned(), true
}

func (o *refOct) negate(x int) {
	d := 2 * o.n
	px, nx := 2*x, 2*x+1
	for j := 0; j < d; j++ {
		o.m[px*d+j], o.m[nx*d+j] = o.m[nx*d+j], o.m[px*d+j]
	}
	for i := 0; i < d; i++ {
		o.m[i*d+px], o.m[i*d+nx] = o.m[i*d+nx], o.m[i*d+px]
	}
}

func (o *refOct) shift(x int, v itv.Itv) {
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
		return satAdd(c, negated(delta.Int()))
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
			o.set(nx, px, satAdd(c, doubled(b.Int(), false)))
		} else {
			o.set(nx, px, inf)
		}
	}
	if c := o.at(px, nx); c != inf {
		if a.IsFinite() {
			o.set(px, nx, satAdd(c, doubled(a.Int(), true)))
		} else {
			o.set(px, nx, inf)
		}
	}
}

func (o *refOct) apply(c Constraint) {
	switch c.Op {
	case XMinusYLe:
		o.tighten(2*c.Y, 2*c.X, c.C)
		o.tighten(bar(2*c.X), bar(2*c.Y), c.C)
	case XPlusYLe:
		o.tighten(bar(2*c.Y), 2*c.X, c.C)
		o.tighten(bar(2*c.X), 2*c.Y, c.C)
	case XLe:
		o.tighten(bar(2*c.X), 2*c.X, doubled(c.C, false))
	case XGe:
		o.tighten(2*c.X, bar(2*c.X), doubled(c.C, true))
	}
}

func (o *refOct) AssumeAll(cs ...Constraint) *refOct {
	if o.bot || len(cs) == 0 {
		return o
	}
	out := o.clone()
	for _, c := range cs {
		out.apply(c)
	}
	return out.closeOwned()
}

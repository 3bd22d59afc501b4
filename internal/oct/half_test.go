package oct

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparrow/internal/lattice/itv"
)

// choices supplies the decisions of an operation sequence: a seeded
// generator in TestHalfMatchesFull, the fuzzer's bytes in FuzzOctOps.
type choices interface{ intn(k int) int }

type seeded struct{ r *rand.Rand }

func (s seeded) intn(k int) int { return s.r.Intn(k) }

// byteChoices takes one choice per byte; once the bytes run out every
// choice is 0.
type byteChoices struct{ b []byte }

func (c *byteChoices) intn(k int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % k
	c.b = c.b[1:]
	return v
}

// drawBound draws a constant: small, near ±2^61 and ±2^62, where doubling
// a bound or summing two saturates, or an end of the int64 range, where
// negating one wraps.
func drawBound(c choices) int64 {
	if c.intn(4) > 0 {
		return int64(c.intn(41) - 20)
	}
	if c.intn(4) == 0 {
		return []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64}[c.intn(3)]
	}
	huge := []int64{1<<61 - 1, 1 << 61, 1<<61 + 3, 1<<62 - 1, 1 << 62, 1<<62 + 1, math.MaxInt64/2 + 7, math.MaxInt64 - 2}
	b := huge[c.intn(len(huge))] - int64(c.intn(5))
	if c.intn(2) == 0 {
		b = -b
	}
	return b
}

// drawItv draws a finite, half-infinite, top or bottom interval.
func drawItv(c choices) itv.Itv {
	a, b := drawBound(c), drawBound(c)
	if a > b {
		a, b = b, a
	}
	switch c.intn(10) {
	case 0:
		return itv.Top
	case 1:
		return itv.Of(itv.NegInf, itv.Fin(b))
	case 2:
		return itv.Of(itv.Fin(a), itv.PosInf)
	case 3:
		return itv.Bot
	}
	return itv.OfInts(a, b)
}

// twin is one abstract state in both layouts.
type twin struct {
	h *Oct
	f *refOct
}

// expand returns o's matrix in the reference's full row-major layout.
func expand(o *Oct) []int64 {
	d := 2 * o.n
	m := make([]int64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			m[i*d+j] = o.at(i, j)
		}
	}
	return m
}

// mismatch describes how h differs from f: bottomness, closed flag,
// expanded matrix, carried closure or any projection. It returns "" when
// they agree.
func mismatch(h *Oct, f *refOct) string {
	if h.bot || f.bot {
		if h.bot != f.bot {
			return fmt.Sprintf("bottom %v, reference %v", h.bot, f.bot)
		}
		return ""
	}
	if h.closed != f.closed {
		return fmt.Sprintf("closed %v, reference %v", h.closed, f.closed)
	}
	if m := expand(h); !slices.Equal(m, f.m) {
		return fmt.Sprintf("matrix %v, reference %v", m, f.m)
	}
	if (h.cl == nil) != (f.cl == nil) {
		return fmt.Sprintf("carries a closure %v, reference %v", h.cl != nil, f.cl != nil)
	}
	if h.cl != nil {
		if s := mismatch(h.cl, f.cl); s != "" {
			return "carried closure: " + s
		}
	}
	for x := 0; x < h.n; x++ {
		if hi, fi := h.Interval(x), f.Interval(x); !hi.Eq(fi) {
			return fmt.Sprintf("x%d in %s, reference %s", x, hi, fi)
		}
	}
	return ""
}

// notIncluding describes how h fails to include f, a result whose closure
// saturated: h must be unclosed where f is, and its expanded matrix (and
// carried closure) must bound every entry of f's. It returns "" when h
// includes f.
func notIncluding(h *Oct, f *refOct) string {
	if f.bot {
		return ""
	}
	if h.bot {
		return "bottom, reference not"
	}
	if h.closed && !f.closed {
		return "closed, reference saturated"
	}
	m := expand(h)
	for i, v := range f.m {
		if m[i] < v {
			return fmt.Sprintf("entry %d is %d, reference %d: matrix %v, reference %v", i, m[i], v, m, f.m)
		}
	}
	if f.cl != nil {
		if h.cl == nil {
			return "carries no closure, reference does"
		}
		if s := notIncluding(h.cl, f.cl); s != "" {
			return "carried closure: " + s
		}
	}
	return ""
}

// runOps applies a sequence of operations drawn from c to a pool of twin
// states over n variables and checks each result against the reference.
// A result whose reference closure did not saturate must match it exactly;
// one whose reference closure saturated must be unclosed and include it,
// and leaves the pool, since the two may differ from then on.
func runOps(t testing.TB, c choices, n, steps int) {
	pool := []twin{{Top(n), refTop(n)}}
	pick := func() twin { return pool[c.intn(len(pool))] }
	for step := 0; step < steps; step++ {
		a, b := pick(), pick()
		x, y := c.intn(n), c.intn(n)
		clamps := refClamps
		var got twin
		var op string
		var hch, fch bool
		switch k := c.intn(13); k {
		case 0:
			op, got = "top", twin{Top(n), refTop(n)}
		case 1, 2:
			v := drawItv(c)
			if k == 1 {
				op, got = fmt.Sprintf("x%d := %s", x, v), twin{a.h.AssignInterval(x, v), a.f.AssignInterval(x, v)}
			} else {
				op, got = fmt.Sprintf("weak x%d := %s", x, v), twin{a.h.WeakAssignInterval(x, v), a.f.WeakAssignInterval(x, v)}
			}
		case 3, 4, 5, 6:
			v, neg := drawItv(c), c.intn(2) == 0
			switch k {
			case 5: // negate, then shift
				y, neg = x, true
			case 6: // shift
				y, neg = x, false
			}
			if k == 4 {
				op, got = fmt.Sprintf("weak x%d := ±x%d (neg %v) + %s", x, y, neg, v),
					twin{a.h.WeakAssignAddVar(x, y, neg, v), a.f.WeakAssignAddVar(x, y, neg, v)}
			} else {
				op, got = fmt.Sprintf("x%d := ±x%d (neg %v) + %s", x, y, neg, v),
					twin{a.h.AssignAddVar(x, y, neg, v), a.f.AssignAddVar(x, y, neg, v)}
			}
		case 7:
			cs := make([]Constraint, 1+c.intn(3))
			for i := range cs {
				cs[i] = Constraint{Op: TestOp(c.intn(4)), X: c.intn(n), Y: c.intn(n), C: drawBound(c)}
			}
			op, got = fmt.Sprintf("assume %v", cs), twin{a.h.AssumeAll(cs...), a.f.AssumeAll(cs...)}
		case 8:
			var j twin
			j.h, hch = a.h.JoinChanged(b.h)
			j.f, fch = a.f.JoinChanged(b.f)
			op, got = "join", j
		case 9:
			op, got = "meet", twin{a.h.Meet(b.h), a.f.Meet(b.f)}
		case 10:
			op, got = "widen", twin{a.h.Widen(b.h), a.f.Widen(b.f)}
		case 11:
			op, got = "narrow", twin{a.h.Narrow(b.h), a.f.Narrow(b.f)}
		case 12:
			op, got = fmt.Sprintf("forget x%d", x), twin{a.h.Forget(x), a.f.Forget(x)}
		}
		if refClamps != clamps {
			if s := notIncluding(got.h, got.f); s != "" {
				t.Fatalf("n=%d step %d, %s on %v (and %v), reference saturated: result %s", n, step, op, a.f, b.f, s)
			}
			continue
		}
		if s := mismatch(got.h, got.f); s != "" {
			t.Fatalf("n=%d step %d, %s on %v (and %v): %s", n, step, op, a.f, b.f, s)
		}
		if hch != fch {
			t.Fatalf("n=%d step %d, %s on %v and %v: changed %v, reference %v", n, step, op, a.f, b.f, hch, fch)
		}
		if got.h.Eq(b.h) != got.f.Eq(b.f) || got.h.LessEq(b.h) != got.f.LessEq(b.f) || b.h.LessEq(got.h) != b.f.LessEq(got.f) {
			t.Fatalf("n=%d step %d, %s on %v: comparisons with %v differ from the reference", n, step, op, a.f, b.f)
		}
		if len(pool) < 8 {
			pool = append(pool, got)
		} else {
			pool[c.intn(len(pool))] = got
		}
	}
}

// TestHalfMatchesFull pins the half-matrix kernel to the full-matrix one
// kept in reference_test.go: random sequences of Top, assignments, weak
// assignments, variable assignments, negations, shifts, assumptions,
// joins, meets, widenings, narrowings and projections over 1 to 10
// variables (and 12), with constants near ±2^61 and ±2^62 and the ends of
// the int64 range among small ones.
func TestHalfMatchesFull(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := seeded{rand.New(rand.NewSource(seed))}
		for seq := 0; seq < 500; seq++ {
			runOps(t, r, 1+seq%10, 80)
		}
		// Beyond ten variables the closure's scratch rows leave the stack.
		runOps(t, r, 12, 80)
	}
}

// FuzzOctOps runs TestHalfMatchesFull's check on fuzzed sequences: the
// first byte picks the number of variables, every later byte one choice.
func FuzzOctOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 7, 1, 0, 1, 1, 3, 9, 4, 1, 8, 0, 1, 6, 2, 10, 0, 0, 3})
	f.Add([]byte{9, 0, 3, 7, 2, 1, 0, 5, 2, 11, 1, 3, 4, 2, 7, 1, 0, 3, 0, 0, 2, 8, 5, 1, 12, 3})
	f.Add([]byte{3, 1, 0, 1, 2, 0, 6, 4, 1, 7, 0, 1, 2, 1, 3, 3, 7, 0, 2, 1, 3, 0, 0, 0, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChoices{data}
		n := 1 + c.intn(10)
		// A step takes about four bytes; beyond them every choice is 0.
		runOps(t, c, n, min(len(data)/4+1, 256))
	})
}

// BenchmarkCloseClosed times the closure of an already closed octagon, the
// common case in the fixpoint, with the half kernel and the full-matrix
// reference side by side: each iteration copies one fixed closed matrix
// into the same octagon and closes it. In the dense matrix every variable is bounded and
// each neighbouring pair has a difference and a sum bound; in the sparse
// one only x0 is bounded and x1 - x0 ≤ 3, so most entries are +∞.
func BenchmarkCloseClosed(b *testing.B) {
	for _, n := range []int{2, 4, 10} {
		var dense []Constraint
		for x := 0; x < n; x++ {
			dense = append(dense, Constraint{Op: XLe, X: x, C: int64(10 + x)}, Constraint{Op: XGe, X: x, C: int64(-x)})
			if y := (x + 1) % n; y != x {
				dense = append(dense, Constraint{Op: XMinusYLe, X: x, Y: y, C: 3}, Constraint{Op: XPlusYLe, X: x, Y: y, C: int64(12 + x)})
			}
		}
		sparse := []Constraint{{Op: XLe, X: 0, C: 10}, {Op: XGe, X: 0, C: 0}, {Op: XMinusYLe, X: 1, Y: 0, C: 3}}
		for _, shape := range []struct {
			name string
			cs   []Constraint
		}{{"dense", dense}, {"sparse", sparse}} {
			half, full := Top(n).AssumeAll(shape.cs...), refTop(n).AssumeAll(shape.cs...)
			if !half.closed || !full.closed {
				b.Fatalf("n=%d %s: the fixed octagon is not closed", n, shape.name)
			}
			b.Run(fmt.Sprintf("%s/n=%d/half", shape.name, n), func(b *testing.B) {
				c := half.clone()
				for b.Loop() {
					copy(c.m, half.m)
					c.closeInPlace()
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/ref", shape.name, n), func(b *testing.B) {
				c := full.clone()
				for b.Loop() {
					copy(c.m, full.m)
					c.closeInPlace()
				}
			})
		}
	}
}

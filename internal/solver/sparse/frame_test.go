package sparse

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
)

// frameUniverse is the number of locations a frame check draws from.
const frameUniverse = 12

// frameScript is one frame check decoded from bytes: the node's Defs and
// in-edge locations, the bound Acc slots with their values, and a sequence
// of Get/Set/WeakSet operations. Values are indices into a fixed table.
type frameScript struct {
	defs, in []ir.LocID
	accSet   []bool
	acc      []int // value index per in location
	ops      []frameOp
}

type frameOp struct {
	kind byte // 0 Get, 1 Set, 2 WeakSet
	loc  ir.LocID
	val  int
}

// decodeFrameScript reads a script from data; missing bytes read as zero.
func decodeFrameScript(data []byte) frameScript {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		b := data[at]
		at++
		return b
	}
	var sc frameScript
	defMask := uint16(next()) | uint16(next())<<8
	inMask := uint16(next()) | uint16(next())<<8
	for l := 0; l < frameUniverse; l++ {
		if defMask&(1<<l) != 0 {
			sc.defs = append(sc.defs, ir.LocID(l))
		}
		if inMask&(1<<l) != 0 {
			b := next()
			sc.in = append(sc.in, ir.LocID(l))
			sc.accSet = append(sc.accSet, b&1 != 0)
			sc.acc = append(sc.acc, int(b>>1))
		}
	}
	for at < len(data) {
		b, v := next(), next()
		sc.ops = append(sc.ops, frameOp{kind: b % 3, loc: ir.LocID(int(b/3) % frameUniverse), val: int(v)})
	}
	return sc
}

// randomFrameScript draws a script of up to 40 operations.
func randomFrameScript(r *rand.Rand) []byte {
	data := make([]byte, 4+frameUniverse+2*r.IntN(41))
	for i := range data {
		data[i] = byte(r.UintN(256))
	}
	return data
}

// frameVals is the interval value table: bottom, constants, ranges, top and
// the uninitialized marker, so that weak updates both grow and keep values.
var frameVals = []val.Val{
	val.Bot, val.Const(0), val.Const(1), val.Const(5),
	val.FromItv(itv.OfInts(0, 3)), val.FromItv(itv.OfInts(-2, 9)),
	val.TopInt, val.UninitTop(),
}

// checkIntervalFrame applies sc to a frame and to the mem.Mem of the same
// input, and requires every read (and the final values of the node's
// definitions) to be representation-identical.
func checkIntervalFrame(t *testing.T, sc frameScript) {
	t.Helper()
	acc := make([]val.Val, len(sc.in))
	var locs []ir.LocID
	var vals []val.Val
	for j, l := range sc.in {
		acc[j] = frameVals[sc.acc[j]%len(frameVals)]
		if !sc.accSet[j] {
			acc[j] = val.Bot // an unbound slot holds the zero value
			continue
		}
		locs, vals = append(locs, l), append(vals, acc[j])
	}
	ref := mem.FromSorted(locs, vals)
	var f frame[val.Val]
	f.load(sc.defs, sc.in, acc, sc.accSet)
	compare := func(step int) {
		for l := ir.LocID(0); l < frameUniverse; l++ {
			got, bound := f.lookup(l)
			if want := ref.Get(l); !reflect.DeepEqual(got, want) || bound != ref.Has(l) {
				t.Fatalf("step %d: loc %d: frame %v (bound %v), memory %v (bound %v)", step, l, got, bound, want, ref.Has(l))
			}
		}
	}
	compare(-1)
	for i, op := range sc.ops {
		v := frameVals[op.val%len(frameVals)]
		switch op.kind {
		case 1:
			f.Set(op.loc, v)
			ref = ref.Set(op.loc, v)
		case 2:
			f.WeakSet(op.loc, v)
			ref = ref.WeakSet(op.loc, v)
		}
		compare(i)
	}
	for i, l := range sc.defs {
		if !reflect.DeepEqual(f.nv[i], ref.Get(l)) {
			t.Fatalf("def %d: frame %v, memory %v", l, f.nv[i], ref.Get(l))
		}
	}
}

// checkOctagonFrame is checkIntervalFrame for pack states: the octagon
// semantics only reads and binds (no weak update), and values must be the
// same objects.
func checkOctagonFrame(t *testing.T, sc frameScript) {
	t.Helper()
	octs := make([]*oct.Oct, 6)
	for k := range octs {
		octs[k] = oct.Top(1).AssignInterval(0, itv.OfInts(int64(k), int64(2*k+1)))
	}
	acc := make([]*oct.Oct, len(sc.in))
	var ps []ir.LocID
	var vals []*oct.Oct
	for j, l := range sc.in {
		if sc.accSet[j] {
			acc[j] = octs[sc.acc[j]%len(octs)]
			ps, vals = append(ps, l), append(vals, acc[j])
		}
	}
	ref := octsem.FromSorted(ps, vals)
	var f frame[*oct.Oct]
	f.load(sc.defs, sc.in, acc, sc.accSet)
	for i, op := range sc.ops {
		if op.kind != 0 {
			o := octs[op.val%len(octs)]
			f.Set(op.loc, o)
			ref = ref.Set(op.loc, o)
		}
		for l := ir.LocID(0); l < frameUniverse; l++ {
			if got, want := f.Get(l), ref.Get(l); got != want {
				t.Fatalf("step %d: pack %d: frame %v, state %v", i, l, got, want)
			}
		}
	}
	for i, l := range sc.defs {
		if f.nv[i] != ref.Get(l) {
			t.Fatalf("def %d: frame %v, state %v", l, f.nv[i], ref.Get(l))
		}
	}
}

// TestFrameMatchesMemory applies random Get/Set/WeakSet sequences, reads
// after writes included, to a frame and to the persistent memory of the
// same input, in both domains.
func TestFrameMatchesMemory(t *testing.T) {
	r := rand.New(rand.NewPCG(26, 1))
	for i := 0; i < 5000; i++ {
		sc := decodeFrameScript(randomFrameScript(r))
		checkIntervalFrame(t, sc)
		checkOctagonFrame(t, sc)
	}
}

// FuzzFrame is TestFrameMatchesMemory on fuzzer-chosen scripts.
func FuzzFrame(f *testing.F) {
	r := rand.New(rand.NewPCG(26, 2))
	for i := 0; i < 4; i++ {
		f.Add(randomFrameScript(r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeFrameScript(data)
		checkIntervalFrame(t, sc)
		checkOctagonFrame(t, sc)
	})
}

// Package check implements the alarm checkers that consume analysis
// results — buffer-overrun, null-dereference, and division-by-zero
// detectors (the paper's analyzers are the engine of such an error
// detection tool; Sparrow reports these classes).
//
// The checkers are result-representation agnostic: they evaluate the
// pointer expressions of each reachable command under a caller-supplied
// "memory at point" function, so the dense and sparse analyzers share them.
package check

import (
	"fmt"
	"sort"
	"strings"

	"sparrow/internal/frontend/token"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/mem"
	"sparrow/internal/sem"
)

// Kind classifies alarms.
type Kind uint8

// Alarm kinds.
const (
	// BufferOverrun: a dereference whose offset may fall outside [0, size).
	BufferOverrun Kind = iota
	// NullDeref: a dereference of a possibly-null (or target-less) pointer.
	NullDeref
	// DivByZero: a division or remainder whose divisor may be zero.
	DivByZero
	// UninitRead: a read of a procedure-local variable that may not have
	// been assigned on some path reaching it. Opt-in: enabling it seeds
	// possibly-uninitialized markers at procedure entries (sem.EntryMarks),
	// which coarsens the abstract semantics for every checker in the run.
	UninitRead

	numKinds = int(UninitRead) + 1
)

// AllKinds lists every checker kind, in report order.
var AllKinds = []Kind{BufferOverrun, NullDeref, DivByZero, UninitRead}

// DefaultKinds are the kinds Run checks — the three classic detectors.
// UninitRead is excluded because it changes the analyzed semantics.
var DefaultKinds = []Kind{BufferOverrun, NullDeref, DivByZero}

func (k Kind) String() string {
	switch k {
	case BufferOverrun:
		return "buffer-overrun"
	case NullDeref:
		return "null-dereference"
	case DivByZero:
		return "division-by-zero"
	case UninitRead:
		return "uninitialized-read"
	default:
		return "alarm"
	}
}

// ShortName is the flag-friendly name of the kind (-checkers buf,null,...).
func (k Kind) ShortName() string {
	switch k {
	case BufferOverrun:
		return "buf"
	case NullDeref:
		return "null"
	case DivByZero:
		return "div"
	case UninitRead:
		return "uninit"
	default:
		return "alarm"
	}
}

// ParseKinds parses a comma-separated list of short kind names ("all"
// selects every kind) into a deduplicated list in canonical order.
func ParseKinds(spec string) ([]Kind, error) {
	var want [numKinds]bool
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			for _, k := range AllKinds {
				want[k] = true
			}
			continue
		}
		found := false
		for _, k := range AllKinds {
			if name == k.ShortName() {
				want[k] = true
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown checker %q (want buf, null, div, uninit, or all)", name)
		}
	}
	var out []Kind
	for _, k := range AllKinds {
		if want[k] {
			out = append(out, k)
		}
	}
	return out, nil
}

// Alarm is one report.
type Alarm struct {
	Kind  Kind
	Point ir.PointID
	Pos   token.Pos
	// Off and Size describe the offending access for overruns.
	Off, Size itv.Itv
	Msg       string
}

func (a Alarm) String() string {
	return fmt.Sprintf("%s: %s: %s", a.Pos, a.Kind, a.Msg)
}

// MemAt supplies the abstract memory before a control point. RunKinds asks
// once per reachable point that has something to check.
type MemAt func(pt ir.PointID) mem.Mem

// Run checks every reachable point of prog with the default checkers and
// returns the alarms sorted by source position.
func Run(prog *ir.Program, s *sem.Sem, reached []bool, memAt MemAt) []Alarm {
	return RunKinds(prog, s, reached, memAt, DefaultKinds)
}

// RunKinds checks every reachable point of prog with exactly the given
// checker kinds and returns the alarms sorted by source position. The result
// for a kind depends only on the abstract values of the locations that kind
// observes, so running one kind against a restricted solve and against the
// full solve yields identical reports (the per-checker sparsification
// contract; see internal/core's AnalyzeChecker).
func RunKinds(prog *ir.Program, s *sem.Sem, reached []bool, memAt MemAt, kinds []Kind) []Alarm {
	var want [numKinds]bool
	for _, k := range kinds {
		if int(k) < numKinds {
			want[k] = true
		}
	}
	var alarms []Alarm
	for _, pt := range prog.Points {
		if reached != nil && !reached[pt.ID] {
			continue
		}
		var derefs []deref
		var divs []ir.Expr
		var reads []ir.VarE
		if want[BufferOverrun] || want[NullDeref] {
			derefs = derefsOf(pt.Cmd)
		}
		if want[DivByZero] {
			divs = divisorsOf(pt.Cmd)
		}
		if want[UninitRead] {
			reads = varReadsOf(pt.Cmd)
		}
		if len(derefs) == 0 && len(divs) == 0 && len(reads) == 0 {
			continue // nothing to check: no memory is asked for
		}
		m := memAt(pt.ID)
		for _, d := range derefs {
			for _, a := range checkDeref(prog, s, pt, d, m) {
				if want[a.Kind] {
					alarms = append(alarms, a)
				}
			}
		}
		for _, dv := range divs {
			alarms = append(alarms, checkDiv(prog, s, pt, dv, m)...)
		}
		for _, e := range reads {
			alarms = append(alarms, checkUninit(prog, pt, e, m)...)
		}
	}
	return sortDedup(alarms)
}

// sortDedup orders the report and collapses duplicates. The duplicate key is
// semantic — Kind plus the offending access (Off/Size compared as lattice
// values) and message — never the control point: complementary assume pairs
// (and other lowering duplicates) evaluate the same source-level dereference
// at several control points and must collapse to one report, while two
// distinct overruns at the same position (one access targeting two blocks,
// or two offsets) must both survive. The sort places equal keys adjacently
// and breaks the final tie on Point, so the order is total and the output
// deterministic under an unstable sort.
func sortDedup(alarms []Alarm) []Alarm {
	sort.Slice(alarms, func(i, j int) bool {
		a, b := alarms[i], alarms[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if c := cmpItv(a.Off, b.Off); c != 0 {
			return c < 0
		}
		if c := cmpItv(a.Size, b.Size); c != 0 {
			return c < 0
		}
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		return a.Point < b.Point
	})
	out := alarms[:0]
	for i, a := range alarms {
		if i > 0 {
			p := alarms[i-1]
			if p.Pos == a.Pos && p.Kind == a.Kind && p.Off.Eq(a.Off) && p.Size.Eq(a.Size) && p.Msg == a.Msg {
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// cmpItv totally orders intervals for report sorting: bottom first, then by
// lower and upper bound.
func cmpItv(a, b itv.Itv) int {
	if a.IsBot() || b.IsBot() {
		switch {
		case a.IsBot() && b.IsBot():
			return 0
		case a.IsBot():
			return -1
		default:
			return 1
		}
	}
	if c := a.Lo().Cmp(b.Lo()); c != 0 {
		return c
	}
	return a.Hi().Cmp(b.Hi())
}

// deref is one pointer use inside a command.
type deref struct {
	ptr   ir.Expr
	write bool
}

// derefsOf collects the dereferenced pointer expressions of a command,
// including loads nested in pure expressions.
func derefsOf(cmd ir.Cmd) []deref {
	var out []deref
	var walkExpr func(e ir.Expr)
	walkExpr = func(e ir.Expr) {
		switch e := e.(type) {
		case ir.Load:
			out = append(out, deref{ptr: e.P})
			walkExpr(e.P)
		case ir.LoadField:
			out = append(out, deref{ptr: e.P})
			walkExpr(e.P)
		case ir.FieldAddr:
			walkExpr(e.P)
		case ir.Bin:
			walkExpr(e.X)
			walkExpr(e.Y)
		case ir.Neg:
			walkExpr(e.X)
		case ir.Not:
			walkExpr(e.X)
		}
	}
	switch c := cmd.(type) {
	case ir.Set:
		walkExpr(c.E)
	case ir.Store:
		out = append(out, deref{ptr: c.P, write: true})
		walkExpr(c.P)
		walkExpr(c.E)
	case ir.StoreField:
		out = append(out, deref{ptr: c.P, write: true})
		walkExpr(c.P)
		walkExpr(c.E)
	case ir.Alloc:
		walkExpr(c.N)
	case ir.Assume:
		walkExpr(c.E)
	case ir.Call:
		walkExpr(c.F)
		for _, a := range c.Args {
			walkExpr(a)
		}
	case ir.Return:
		if c.E != nil {
			walkExpr(c.E)
		}
	}
	return out
}

// divisorsOf collects the divisor expressions of a command.
func divisorsOf(cmd ir.Cmd) []ir.Expr {
	var out []ir.Expr
	var walk func(e ir.Expr)
	walk = func(e ir.Expr) {
		switch e := e.(type) {
		case ir.Bin:
			if e.Op == ir.Div || e.Op == ir.Rem {
				out = append(out, e.Y)
			}
			walk(e.X)
			walk(e.Y)
		case ir.Load:
			walk(e.P)
		case ir.LoadField:
			walk(e.P)
		case ir.FieldAddr:
			walk(e.P)
		case ir.Neg:
			walk(e.X)
		case ir.Not:
			walk(e.X)
		}
	}
	switch c := cmd.(type) {
	case ir.Set:
		walk(c.E)
	case ir.Store:
		walk(c.P)
		walk(c.E)
	case ir.StoreField:
		walk(c.P)
		walk(c.E)
	case ir.Alloc:
		walk(c.N)
	case ir.Assume:
		walk(c.E)
	case ir.Call:
		walk(c.F)
		for _, a := range c.Args {
			walk(a)
		}
	case ir.Return:
		if c.E != nil {
			walk(c.E)
		}
	}
	return out
}

// varReadsOf collects the direct variable reads of a command: every VarE
// occurrence in its evaluated expressions. Taking an address (AddrOf) is not
// a read.
func varReadsOf(cmd ir.Cmd) []ir.VarE {
	var out []ir.VarE
	var walk func(e ir.Expr)
	walk = func(e ir.Expr) {
		switch e := e.(type) {
		case ir.VarE:
			out = append(out, e)
		case ir.Load:
			walk(e.P)
		case ir.LoadField:
			walk(e.P)
		case ir.FieldAddr:
			walk(e.P)
		case ir.Bin:
			walk(e.X)
			walk(e.Y)
		case ir.Neg:
			walk(e.X)
		case ir.Not:
			walk(e.X)
		}
	}
	switch c := cmd.(type) {
	case ir.Set:
		walk(c.E)
	case ir.Store:
		walk(c.P)
		walk(c.E)
	case ir.StoreField:
		walk(c.P)
		walk(c.E)
	case ir.Alloc:
		walk(c.N)
	case ir.Assume:
		walk(c.E)
	case ir.Call:
		walk(c.F)
		for _, a := range c.Args {
			walk(a)
		}
	case ir.Return:
		if c.E != nil {
			walk(c.E)
		}
	}
	return out
}

// checkUninit reports direct reads of procedure-local variables whose
// abstract value carries the possibly-uninitialized marker seeded at the
// procedure entry. Only automatic (procedure-scoped) variables are flagged:
// globals are zero-initialized in the modeled language, and the entry
// transfer only marks locals.
func checkUninit(prog *ir.Program, pt *ir.Point, e ir.VarE, m mem.Mem) []Alarm {
	loc := prog.Locs.Get(e.L)
	if loc.Kind != ir.LVar || loc.Proc == ir.None {
		return nil
	}
	// Frontend temporaries ($tN) only relay already-marked source values
	// (e.g. a hoisted call result); the source-level read is reported at
	// the variable that produced the mark, not at the lowering artifact.
	if strings.HasPrefix(loc.Name, "$") {
		return nil
	}
	if !m.MayUninit(e.L) {
		return nil
	}
	return []Alarm{{
		Kind:  UninitRead,
		Point: pt.ID,
		Pos:   pt.Pos,
		Msg:   fmt.Sprintf("variable %s may be read before initialization", prog.Locs.String(e.L)),
	}}
}

// checkDiv reports divisors whose abstract value may be zero.
func checkDiv(prog *ir.Program, s *sem.Sem, pt *ir.Point, divisor ir.Expr, m mem.Mem) []Alarm {
	dv := s.Eval(divisor, m)
	iv := dv.Itv()
	if iv.IsBot() {
		return nil // dead
	}
	if iv.Truth()&itv.MaybeFalse == 0 {
		return nil // provably nonzero
	}
	return []Alarm{{
		Kind:  DivByZero,
		Point: pt.ID,
		Pos:   pt.Pos,
		Msg:   fmt.Sprintf("divisor %s may be zero (value %s)", prog.ExprString(divisor), iv),
	}}
}

func checkDeref(prog *ir.Program, s *sem.Sem, pt *ir.Point, d deref, m mem.Mem) []Alarm {
	pv := s.Eval(d.ptr, m)
	if pv.IsBot() {
		return nil // dead value: nothing concrete reaches this dereference
	}
	var out []Alarm
	access := "read through"
	if d.write {
		access = "write through"
	}
	// Null / wild pointer: integer component containing 0 with no valid
	// target, or no targets at all while being a "pointer-shaped" value.
	if len(pv.Ptr()) == 0 {
		if pv.Itv().Truth()&itv.MaybeFalse != 0 || pv.Itv().IsTop() {
			out = append(out, Alarm{
				Kind:  NullDeref,
				Point: pt.ID,
				Pos:   pt.Pos,
				Msg:   fmt.Sprintf("%s %s: pointer has no valid target (value %s)", access, prog.ExprString(d.ptr), pv.Itv()),
			})
		}
		return out
	}
	// Buffer overrun: offset must stay within [0, size-1] for every target.
	for _, t := range pv.Ptr() {
		off, sz := t.R.Off, t.R.Sz
		if off.IsBot() || sz.IsBot() {
			continue
		}
		okLo := off.Lo().Cmp(itv.Fin(0)) >= 0
		// off.Hi must be < sz.Lo to be provably in bounds.
		okHi := false
		if sz.Lo().IsFinite() && off.Hi().IsFinite() {
			okHi = off.Hi().Int() < sz.Lo().Int()
		}
		if okLo && okHi {
			continue
		}
		out = append(out, Alarm{
			Kind:  BufferOverrun,
			Point: pt.ID,
			Pos:   pt.Pos,
			Off:   off,
			Size:  sz,
			Msg: fmt.Sprintf("%s %s: offset %s may exceed block %s of size %s",
				access, prog.ExprString(d.ptr), off, prog.Locs.String(t.Loc), sz),
		})
	}
	return out
}

// Checker describes one alarm kind to the per-checker sparsification layer:
// Observed returns the abstract locations whose values the kind's checks
// read. An analysis that computes the full fixpoint only on the backward
// data-dependency closure of this set (plus the branch-condition locations
// that steer reachability) reproduces this kind's report exactly — that
// closure is prean.ClosureIndex.Closure, and the restricted graph is
// dug.BuildRestricted.
type Checker struct {
	Kind Kind
	// Observed returns the sorted, deduplicated locations the checker's
	// guard expressions evaluate, judged against the pre-analysis memory
	// (pointer uses resolve against pre, exactly as D̂/Û do).
	Observed func(prog *ir.Program, s *sem.Sem, pre mem.Mem) []ir.LocID
}

// CheckerFor returns the descriptor of kind k.
func CheckerFor(k Kind) Checker {
	return Checker{
		Kind: k,
		Observed: func(prog *ir.Program, s *sem.Sem, pre mem.Mem) []ir.LocID {
			var locs []ir.LocID
			add := func(l ir.LocID) { locs = append(locs, l) }
			for _, pt := range prog.Points {
				switch k {
				case BufferOverrun, NullDeref:
					for _, d := range derefsOf(pt.Cmd) {
						s.UseOf(d.ptr, pre, add)
					}
				case DivByZero:
					for _, dv := range divisorsOf(pt.Cmd) {
						s.UseOf(dv, pre, add)
					}
				case UninitRead:
					for _, e := range varReadsOf(pt.Cmd) {
						add(e.L)
					}
				}
			}
			return ir.DedupLocs(locs)
		},
	}
}

package sparrow_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparrow"
	"sparrow/internal/check"
	"sparrow/internal/core"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/interp"
	"sparrow/internal/ir"
)

// loadCorpus returns the corpus programs by name.
func loadCorpus(t *testing.T) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("testdata", "corpus", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(src)
	}
	if len(out) < 5 {
		t.Fatalf("corpus too small: %d programs", len(out))
	}
	return out
}

// TestCorpusAllAnalyzers runs every corpus program through all six
// analyzers and checks basic sanity plus base/sparse alarm parity.
func TestCorpusAllAnalyzers(t *testing.T) {
	for name, src := range loadCorpus(t) {
		t.Run(name, func(t *testing.T) {
			alarmSets := map[sparrow.Mode]map[string]bool{}
			for _, domain := range []sparrow.Domain{sparrow.Interval, sparrow.Octagon} {
				for _, mode := range []sparrow.Mode{sparrow.Vanilla, sparrow.Base, sparrow.Sparse} {
					res, err := sparrow.AnalyzeSource(name, src, sparrow.Options{Domain: domain, Mode: mode})
					if err != nil {
						t.Fatalf("%v/%v: %v", domain, mode, err)
					}
					if domain == sparrow.Interval && mode != sparrow.Vanilla {
						set := map[string]bool{}
						for _, a := range res.Alarms() {
							set[a.Pos.String()+"/"+a.Kind.String()] = true
						}
						alarmSets[mode] = set
					}
				}
			}
			// On this curated corpus the sparse analyzer reports no alarm
			// the base analyzer does not (Lemma 2's promise). It may report
			// fewer: sparse widening is per-location at that location's own
			// phi, while dense widening hits the whole memory at every loop
			// head, so unrelated outer variables can get widened there. On
			// arbitrary widened programs the asymmetry can flip — see the
			// precision oracle in internal/fuzz — so this pins the corpus,
			// not a general theorem.
			base, sp := alarmSets[sparrow.Base], alarmSets[sparrow.Sparse]
			for k := range sp {
				if !base[k] {
					t.Errorf("alarm %s: sparse only (precision loss)", k)
				}
			}
		})
	}
}

// TestCorpusGoldenAlarms pins the exact alarm counts of the corpus: the
// buggy program reports its three bugs; the safe programs stay silent.
func TestCorpusGoldenAlarms(t *testing.T) {
	// The counts pin the analyzer's intended behavior: the three planted
	// bugs of overruns.c are found; matrix/statemachine are proved safe.
	// The remaining counts are the classic interval-domain false alarms of
	// such analyzers (widening loses the upper bound that a global
	// "sp <= 32"-style invariant would need; the paper's group's
	// alarm-clustering work exists precisely because of these).
	want := map[string]struct{ overruns, nulls int }{
		"matrix.c":       {0, 0},
		"statemachine.c": {0, 0},
		"overruns.c":     {2, 1},
		"tokenizer.c":    {0, 0},
		"bitops.c":       {0, 0},
		"workqueue.c":    {0, 0},
		"stack.c":        {1, 0}, // pop's stack[sp] upper bound lost to widening
		"ringbuf.c":      {2, 0}, // head/tail widened at the shared entries
		"sortcheck.c":    {4, 0}, // shifted-write bounds lost to widening
		// linkedlist.c traverses through may-null pointers; the null
		// checker only fires on pointers with *no* valid target (a plain
		// null value), so the guarded traversal is silent.
		"linkedlist.c": {0, 0},
		// The three feature programs are proved safe: fpdispatch clamps
		// its store index, switchcase's class is a join of constants under
		// a guard, gotoloop's trace write is guarded after the goto loop.
		"fpdispatch.c": {0, 0},
		"switchcase.c": {0, 0},
		"gotoloop.c":   {0, 0},
		// uninit.c's bugs are uninitialized reads; the classic checkers
		// (the default run pinned here) stay silent on it.
		"uninit.c": {0, 0},
	}
	for name, src := range loadCorpus(t) {
		exp, pinned := want[name]
		if !pinned {
			continue
		}
		res, err := sparrow.AnalyzeSource(name, src, sparrow.Options{Domain: sparrow.Interval, Mode: sparrow.Sparse})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := struct{ overruns, nulls int }{}
		for _, a := range res.Alarms() {
			switch a.Kind {
			case check.BufferOverrun:
				got.overruns++
			case check.NullDeref:
				got.nulls++
			}
		}
		if got != exp {
			t.Errorf("%s: alarms %+v want %+v\n%v", name, got, exp, res.Alarms())
		}
	}
}

// TestCorpusGoldenKinds pins the per-kind alarm counts and the restricted
// dependency-graph sizes of the per-checker solves for three corpus
// programs (all four checkers enabled), and for every corpus program which
// kinds reuse another kind's restricted solve when the kinds run in report
// order. The triple counts are goldens: update them deliberately when the
// graph construction changes, and note that every restricted count must
// stay strictly below the full graph's.
func TestCorpusGoldenKinds(t *testing.T) {
	type kindGold struct {
		buf, null, div, uninit int
		// restricted ⟨from, loc, to⟩ triple counts per kind, then the
		// full graph's count.
		rBuf, rNull, rDiv, rUninit, full int
	}
	want := map[string]kindGold{
		"uninit.c":   {0, 0, 0, 2, 13, 13, 13, 42, 44},
		"overruns.c": {2, 1, 0, 0, 32, 32, 16, 47, 49},
		"ringbuf.c":  {2, 0, 0, 0, 61, 61, 30, 131, 133},
	}
	counts := func(alarms []check.Alarm) (g kindGold) {
		for _, a := range alarms {
			switch a.Kind {
			case check.BufferOverrun:
				g.buf++
			case check.NullDeref:
				g.null++
			case check.DivByZero:
				g.div++
			case check.UninitRead:
				g.uninit++
			}
		}
		return g
	}
	corpus := loadCorpus(t)
	for name, exp := range want {
		src, ok := corpus[name]
		if !ok {
			t.Fatalf("%s missing from corpus", name)
		}
		res, err := sparrow.AnalyzeSource(name, src, sparrow.Options{
			Domain: sparrow.Interval, Mode: sparrow.Sparse, Checkers: check.AllKinds,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := counts(res.Alarms())
		for _, k := range check.AllKinds {
			run, err := res.AnalyzeChecker(k)
			if err != nil {
				t.Fatal(err)
			}
			switch k {
			case check.BufferOverrun:
				got.rBuf = run.Triples
			case check.NullDeref:
				got.rNull = run.Triples
			case check.DivByZero:
				got.rDiv = run.Triples
			case check.UninitRead:
				got.rUninit = run.Triples
			}
			got.full = run.FullTriples
			if run.Triples >= run.FullTriples {
				t.Errorf("%s/%v: restricted graph (%d triples) not smaller than full (%d)",
					name, k, run.Triples, run.FullTriples)
			}
		}
		if got != exp {
			t.Errorf("%s: per-kind golden drift:\n got %+v\nwant %+v", name, got, exp)
		}
	}

	// kind=solver for each run that reused the solve of an earlier kind.
	sharing := map[string]string{
		"bitops.c":       "null=buf div=buf",
		"fpdispatch.c":   "null=buf",
		"gotoloop.c":     "null=buf",
		"linkedlist.c":   "null=buf div=buf",
		"matrix.c":       "null=buf",
		"overruns.c":     "null=buf",
		"ringbuf.c":      "null=buf",
		"sortcheck.c":    "null=buf div=buf",
		"stack.c":        "null=buf",
		"statemachine.c": "null=buf div=buf",
		"switchcase.c":   "null=buf",
		"tokenizer.c":    "null=buf",
		"uninit.c":       "null=buf div=buf",
		"workqueue.c":    "null=buf div=buf",
	}
	if len(sharing) != len(corpus) {
		t.Errorf("sharing golden covers %d files, corpus has %d", len(sharing), len(corpus))
	}
	for name, src := range corpus {
		res, err := sparrow.AnalyzeSource(name, src, sparrow.Options{
			Domain: sparrow.Interval, Mode: sparrow.Sparse, Checkers: check.AllKinds,
		})
		if err != nil {
			t.Fatal(err)
		}
		var shared []string
		for _, k := range check.AllKinds {
			run, err := res.AnalyzeChecker(k)
			if err != nil {
				t.Fatal(err)
			}
			if run.SharedWith != nil {
				shared = append(shared, k.ShortName()+"="+run.SharedWith.ShortName())
			}
		}
		if got := strings.Join(shared, " "); got != sharing[name] {
			t.Errorf("%s: shared solves %q, want %q", name, got, sharing[name])
		}
	}
}

// TestCorpusUninitInterp is the concrete oracle for the uninit corpus
// program: the trapping interpreter traps on one of its planted bugs, and
// runs a fully-initialized corpus program (matrix.c) to completion under
// the same option.
func TestCorpusUninitInterp(t *testing.T) {
	corpus := loadCorpus(t)
	run := func(name string) error {
		t.Helper()
		f, err := parser.Parse(name, corpus[name])
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lower.File(f)
		if err != nil {
			t.Fatal(err)
		}
		_, err = interp.Run(prog, interp.Options{
			MaxSteps:       200000,
			Inputs:         []int64{-1}, // pick()'s input() <= 0 leaves r unassigned
			TrapUninitRead: true,
		})
		return err
	}
	var trap *interp.Trap
	if err := run("uninit.c"); !errors.As(err, &trap) || !strings.Contains(trap.Msg, "uninitialized") {
		t.Errorf("uninit.c: err = %v, want uninitialized-read trap", err)
	}
	if err := run("matrix.c"); err != nil {
		var mt *interp.Trap
		if errors.As(err, &mt) && strings.Contains(mt.Msg, "uninitialized") {
			t.Errorf("matrix.c: spurious uninit trap: %v", mt)
		}
	}
}

// TestCorpusRestrictedParity pins the per-checker sparsification contract
// on the whole corpus: for every checker kind, the restricted solve
// (closure → filtered DUG → sequential sparse fixpoint) reports exactly
// the full sparse solve's alarms of that kind, on a strictly-no-larger
// dependency graph.
func TestCorpusRestrictedParity(t *testing.T) {
	for name, src := range loadCorpus(t) {
		t.Run(name, func(t *testing.T) {
			res, err := sparrow.AnalyzeSource(name, src, sparrow.Options{
				Domain: sparrow.Interval, Mode: sparrow.Sparse, Checkers: check.AllKinds,
			})
			if err != nil {
				t.Fatal(err)
			}
			full := map[check.Kind][]string{}
			for _, a := range res.Alarms() {
				full[a.Kind] = append(full[a.Kind], a.String())
			}
			for _, k := range check.AllKinds {
				run, err := res.AnalyzeChecker(k)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, a := range run.Alarms {
					got = append(got, a.String())
				}
				if want := full[k]; !reflect.DeepEqual(got, want) {
					t.Errorf("%v: restricted alarms %v, full %v", k, got, want)
				}
				if run.Triples > run.FullTriples {
					t.Errorf("%v: restricted triples %d exceed full %d", k, run.Triples, run.FullTriples)
				}
			}
		})
	}
}

// TestCorpusSoundness executes each corpus program concretely and checks
// the vanilla interval result contains every observation.
func TestCorpusSoundness(t *testing.T) {
	for name, src := range loadCorpus(t) {
		t.Run(name, func(t *testing.T) {
			f, err := parser.Parse(name, src)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lower.File(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.AnalyzeProgram(prog, core.Options{Domain: core.Interval, Mode: core.Vanilla})
			if err != nil {
				t.Fatal(err)
			}
			bad := 0
			_, err = interp.Run(prog, interp.Options{
				MaxSteps: 200000,
				Inputs:   []int64{3, -7, 12, 0, 45, -2, 8},
				Observe: func(pt ir.PointID, get func(ir.LocID) (interp.Value, bool)) {
					if bad > 3 {
						return
					}
					for id := 0; id < prog.Locs.Len(); id++ {
						l := ir.LocID(id)
						cv, bound := get(l)
						if !bound || cv.Kind != interp.Int {
							continue
						}
						av, _ := res.ValueAt(pt, l)
						iv := av.Itv()
						if iv.IsBot() {
							continue // summary cells are lazily materialized concretely
						}
						if iv.Lo().IsFinite() && cv.N < iv.Lo().Int() ||
							iv.Hi().IsFinite() && cv.N > iv.Hi().Int() {
							bad++
							t.Errorf("point %d loc %s: concrete %d outside %s",
								pt, prog.Locs.String(l), cv.N, iv)
						}
					}
				},
			})
			var trap *interp.Trap
			if err != nil && !errors.As(err, &trap) {
				t.Fatal(err)
			}
		})
	}
}

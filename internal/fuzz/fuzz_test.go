package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sparrow/internal/core"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
)

// repoTestdata is the repo-root artifact directory for minimized repros.
var repoTestdata = filepath.Join("..", "..", "testdata", "fuzz")

// TestDifferentialShort is the budgeted campaign wired into plain `go
// test`: 200 generated programs through all six analyzer configurations,
// the concrete interpreter, and repeated sparse runs, with zero tolerated
// violations. CI runs the same campaign under -race via cmd/sparrow-fuzz.
func TestDifferentialShort(t *testing.T) {
	// The campaign must include the fault oracle: the default oracle set is
	// the contract here, not an implementation detail.
	for _, name := range []string{"faults"} {
		found := false
		for _, o := range StandardOracles() {
			if o.Name == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("standard oracle set lacks the %s oracle", name)
		}
	}
	n := 200
	if testing.Short() {
		n = 40
	}
	sum, err := Run(Options{
		Seed:    1,
		N:       n,
		Workers: runtime.GOMAXPROCS(0),
		Shrink:  true,
		OutDir:  repoTestdata,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Programs != n {
		t.Fatalf("ran %d programs, want %d", sum.Programs, n)
	}
	for _, rep := range sum.Failures {
		t.Errorf("seed %d:\n%s", rep.Seed, Transcript(rep, Options{}.withDefaults()))
	}
}

// TestRunVisitsEverySeedOnce checks the campaign fan-out: with 1 and 4
// workers, Run checks every seed exactly once and gives identical per-seed
// reports. The synthetic oracle needs no analysis and fires on every
// program, so Summary.Failures lists every report in seed order.
func TestRunVisitsEverySeedOnce(t *testing.T) {
	const n, seed = 23, 100
	var reports [2][]*Report
	for i, workers := range []int{1, 4} {
		var mu sync.Mutex
		visits := map[string]int{}
		visit := Oracle{Name: "visit", Check: func(ex *Exec) []Violation {
			mu.Lock()
			visits[ex.Name]++
			mu.Unlock()
			return []Violation{{Oracle: "visit", Detail: fmt.Sprintf("%s: %d bytes", ex.Name, len(ex.Src))}}
		}}
		sum, err := Run(Options{Seed: seed, N: n, Workers: workers, Stmts: 20, Oracles: []Oracle{visit}})
		if err != nil {
			t.Fatal(err)
		}
		if len(visits) != n || len(sum.Failures) != n {
			t.Fatalf("workers=%d: %d programs visited, %d reports; want %d", workers, len(visits), len(sum.Failures), n)
		}
		for name, k := range visits {
			if k != 1 {
				t.Errorf("workers=%d: %s checked %d times", workers, name, k)
			}
		}
		for j, rep := range sum.Failures {
			if rep.Seed != seed+uint64(j) {
				t.Fatalf("workers=%d: report %d has seed %d, want %d", workers, j, rep.Seed, seed+j)
			}
		}
		reports[i] = sum.Failures
	}
	for j := range reports[0] {
		if a, b := reports[0][j], reports[1][j]; !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: reports differ between 1 and 4 workers:\n%+v\n%+v", a.Seed, a, b)
		}
	}
}

// storeOracle is the shrinker self-test's synthetic violation: it fires
// whenever the lowered program contains a pointer store. The predicate
// still runs the full parse → lower → analyze path, so shrinking exercises
// the same machinery a real oracle would.
func storeOracle() Oracle {
	return Oracle{
		Name:  "inject-store",
		Needs: needIntervalVanilla,
		Check: func(ex *Exec) []Violation {
			prog := ex.Interval[core.Vanilla].Prog
			for _, pt := range prog.Points {
				if _, ok := pt.Cmd.(ir.Store); ok {
					return []Violation{{Oracle: "inject-store", Detail: "program contains a pointer store"}}
				}
			}
			return nil
		},
	}
}

// selfTestSeed generates a program with a pointer store (verified by the
// deterministic-shrink assertions below).
const selfTestSeed = 3

// TestShrinkerSelfTest injects a synthetic oracle violation and checks the
// delta debugger minimizes it to a tiny deterministic repro with artifacts.
func TestShrinkerSelfTest(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Seed: selfTestSeed, N: 1, Shrink: true, OutDir: dir,
		Oracles: []Oracle{storeOracle()}}
	sum, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) != 1 {
		t.Fatalf("want 1 injected failure, got %d (pick a selfTestSeed whose program has a pointer store)",
			len(sum.Failures))
	}
	rep := sum.Failures[0]
	if rep.Minimized == "" {
		t.Fatal("shrinker did not run")
	}
	gotLines := len(strings.Split(strings.TrimRight(rep.Minimized, "\n"), "\n"))
	if gotLines > 25 {
		t.Errorf("minimized repro has %d lines, want <= 25:\n%s", gotLines, rep.Minimized)
	}
	// The minimized program must still trip the oracle and must still be a
	// valid program.
	_, vs, err := CheckSource("min.c", rep.Minimized, opt.Oracles, opt)
	if err != nil {
		t.Fatalf("minimized repro no longer valid: %v", err)
	}
	if len(vs) == 0 {
		t.Error("minimized repro no longer violates the injected oracle")
	}
	// Deterministic: a second campaign shrinks to the identical repro.
	sum2, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum2.Failures) != 1 || sum2.Failures[0].Minimized != rep.Minimized {
		t.Error("shrinking is not deterministic for a fixed seed")
	}
	// Artifacts: minimized .c plus transcript.
	for _, name := range []string{rep.Name + ".c", rep.Name + ".txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s: %v", name, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, rep.Name+".c"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != rep.Minimized {
		t.Error("artifact .c differs from minimized repro")
	}
}

// TestShrinkPure checks the delta debugger itself on a synthetic predicate:
// it must isolate the single load-bearing line and do so deterministically.
func TestShrinkPure(t *testing.T) {
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, fmt.Sprintf("filler line %d", i))
	}
	lines[17] = "NEEDLE"
	src := strings.Join(lines, "\n") + "\n"
	pred := func(s string) bool { return strings.Contains(s, "NEEDLE") }
	min, log := Shrink(src, pred)
	if strings.TrimSpace(min) != "NEEDLE" {
		t.Errorf("minimized to %q, want just the needle\n%s", min, log)
	}
	if min2, _ := Shrink(src, pred); min2 != min {
		t.Error("pure shrink is not deterministic")
	}
	// A predicate that rejects the original input must be a no-op.
	same, _ := Shrink(src, func(string) bool { return false })
	if same != src {
		t.Error("shrink changed input despite failing predicate")
	}
}

// TestShrinkAntiSlippage checks the campaign-level predicate: shrinking a
// report fixes on the oracle that fired, so reduction cannot slide onto a
// different failure class.
func TestShrinkAntiSlippage(t *testing.T) {
	// An oracle that fires on pointer stores AND (separately named) on
	// switches: the report's first violation is the store one, so the
	// minimized program must keep a store but is free to drop switches.
	both := []Oracle{storeOracle(), {
		Name:  "inject-switch",
		Needs: 0,
		Check: func(ex *Exec) []Violation {
			if strings.Contains(ex.Src, "switch (") {
				return []Violation{{Oracle: "inject-switch", Detail: "has a switch"}}
			}
			return nil
		},
	}}
	// Find a seed whose program has both features, deterministically.
	seed := uint64(0)
	for ; seed < 200; seed++ {
		src := GenSource(seed, 120)
		if strings.Contains(src, "switch (") && strings.Contains(src, "*q = ") {
			break
		}
	}
	opt := Options{Seed: seed, N: 1, Shrink: true, Oracles: both}
	sum, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) != 1 {
		t.Fatalf("want 1 failure, got %d", len(sum.Failures))
	}
	rep := sum.Failures[0]
	if rep.Violations[0].Oracle != "inject-store" {
		t.Skipf("first violation is %s; slippage guard exercises the store case", rep.Violations[0].Oracle)
	}
	_, vs, err := CheckSource("min.c", rep.Minimized, []Oracle{storeOracle()}, opt)
	if err != nil {
		t.Fatalf("minimized repro invalid: %v", err)
	}
	if len(vs) == 0 {
		t.Error("minimized repro lost the original oracle's violation (slippage)")
	}
}

// TestSeed5584Regression pins the first real finding of a wide-sweep
// campaign, which sharpened two oracles. The full seed-5584 program is a
// widened run where sparse's per-location widening loses a guard operand's
// lower bound that dense's whole-memory schedule keeps, so sparse alone
// reports an overrun — which is why the precision oracle compares nothing
// across engines once an effective widening fired. Its shrunk form (an
// unconditionally self-recursive callee) is widening-free but shows Base's
// localization bypass marking the concretely-dead return site reachable
// while sparse correctly leaves it bottom — which is why non-strict
// DiffSparseVsBase skips reachability asymmetry. Both must now be clean.
func TestSeed5584Regression(t *testing.T) {
	rep := RunOne(5584, Options{Stmts: 120})
	for _, v := range rep.Violations {
		t.Errorf("seed 5584: %s", v)
	}
	const minimized = `int g0;
int f0(int a0, int a1) {
		a1 = f0((g0 - 0), (a0 * a0));
}
int main() {
	int r = 0;
	r = r + f0(input(), 0);
}
`
	_, vs, err := CheckSource("seed5584-min.c", minimized, StandardOracles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("minimized: %s", v)
	}
}

// TestFnptrHeterogeneousCallees pins the second real finding of the wide
// sweeps (seed 5235): an engine bug, not an oracle artifact. At an indirect
// call whose callees have different access sets, the value of a location
// accessed by only some callees must survive to the return site along the
// paths through the others — here g0 flows through f1, which never touches
// it. The sparse builder lost it (the return site's definition of g0 was fed
// only by the defining callee's exit), and both dense localizing solvers
// lost it too (they bypassed only the complement of the UNION of the access
// sets), making concrete g0 = 0 escape every abstraction. Fixed by
// call→return-site edges for partially-defined locations in the def-use
// graph and by per-callee bypass in the dense solvers.
func TestFnptrHeterogeneousCallees(t *testing.T) {
	const src = `int g0;
int g2;
int f0(int a0, int a1) {
	int v2 = 3;
	g0 = v2;
}
int f1(int a0, int a1) {
	return 0;
}
int f5(int a0, int a1) {
	int v0 = 0;
	v0 = dispatch((g2 * g2), (a0 - a1));
	g2 = (0 - (v0 + g0));
}
int (*fp)(int, int);
int dispatch(int x, int y) {
	if (x > y) { fp = f0; } else { fp = f1; }
	return fp(x, y);
}
int main() {
	int r = 0;
	r = r + f5(input(), 4);
}
`
	_, vs, err := CheckSource("fnptr-hetero.c", src, StandardOracles(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("fnptr-hetero: %s", v)
	}
	rep := RunOne(5235, Options{Stmts: 120})
	for _, v := range rep.Violations {
		t.Errorf("seed 5235: %s", v)
	}
}

// FuzzDifferential is the native-fuzzing entry: the engine mutates the
// generation seed; every derived program must satisfy all four oracles.
func FuzzDifferential(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Add(uint64(5584)) // see TestSeed5584Regression
	f.Add(uint64(5235)) // see TestFnptrHeterogeneousCallees
	f.Fuzz(func(t *testing.T, seed uint64) {
		rep := RunOne(seed, Options{Stmts: 80})
		if rep.Failed() {
			t.Errorf("seed %d:\n%s", seed, Transcript(rep, Options{}.withDefaults()))
		}
	})
}

// FuzzParser feeds the frontend raw source — corpus programs and generated
// ones as seeds — and requires parse+lower to fail gracefully, never panic
// (the parser's robustness contract).
func FuzzParser(f *testing.F) {
	entries, err := os.ReadDir(filepath.Join("..", "..", "testdata", "corpus"))
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(GenSource(1, 120))
	f.Add(GenSource(2, 200))
	f.Fuzz(func(t *testing.T, src string) {
		file, err := parser.Parse("fuzz.c", src)
		if err != nil {
			return
		}
		_, _ = lower.File(file) // must not panic; rejection is fine
	})
}

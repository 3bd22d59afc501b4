package sparse

import (
	"fmt"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/incr"
	"sparrow/internal/prean"
)

// assertSameCounters checks the deterministic work counters agree exactly.
func assertSameCounters(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Steps != b.Steps {
		t.Errorf("%s: steps %d vs %d", label, a.Steps, b.Steps)
	}
	if a.Joins != b.Joins {
		t.Errorf("%s: joins %d vs %d", label, a.Joins, b.Joins)
	}
	if a.Widenings != b.Widenings {
		t.Errorf("%s: widenings %d vs %d", label, a.Widenings, b.Widenings)
	}
	if a.Rounds != b.Rounds {
		t.Errorf("%s: rounds %d vs %d", label, a.Rounds, b.Rounds)
	}
}

// TestIncrementalColdMatchesParallel checks that the instrumented driver with
// an empty cache is the same computation as the component solver: identical
// memories, reachability, and work counters.
func TestIncrementalColdMatchesParallel(t *testing.T) {
	for _, prog := range componentCorpus {
		for _, bypass := range []bool{false, true} {
			p, _ := buildPipeline(t, prog.src, dug.Options{Bypass: bypass})
			comp := AnalyzeComponents(p.prog, p.pre, p.g, Options{})
			cache := incr.NewCache(defaultWidenThreshold, defaultEntryWidenDelay)
			inc, stats, err := AnalyzeIncremental(p.prog, p.pre, p.g, Options{}, cache)
			if err != nil {
				t.Fatalf("%s: %v", prog.name, err)
			}
			label := fmt.Sprintf("%s bypass=%v", prog.name, bypass)
			assertSameResult(t, label, p.g, comp, inc)
			assertSameCounters(t, label, comp, inc)
			// Hits on an empty cache are legitimate: the table is
			// content-addressed, so structurally identical components at
			// equal input histories share entries within one solve.
			if stats.Misses == 0 || stats.Resolved == 0 {
				t.Errorf("%s: cold run recorded nothing (misses=%d resolved=%d)", label, stats.Misses, stats.Resolved)
			}
			if cache.Len() != stats.Misses {
				t.Errorf("%s: %d cache entries for %d misses", label, cache.Len(), stats.Misses)
			}
		}
	}
}

// TestIncrementalWarmIdentical re-solves the unchanged program against the
// snapshot (round-tripped through the codec): every component run must hit,
// and the result must be bit-identical.
func TestIncrementalWarmIdentical(t *testing.T) {
	for _, prog := range componentCorpus {
		p, _ := buildPipeline(t, prog.src, dug.Options{Bypass: true})
		cache := incr.NewCache(defaultWidenThreshold, defaultEntryWidenDelay)
		cold, _, err := AnalyzeIncremental(p.prog, p.pre, p.g, Options{}, cache)
		if err != nil {
			t.Fatalf("%s: %v", prog.name, err)
		}
		data, err := cache.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", prog.name, err)
		}
		loaded, err := incr.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", prog.name, err)
		}
		// A fresh pipeline, as a real warm run would re-lower the source.
		p2, _ := buildPipeline(t, prog.src, dug.Options{Bypass: true})
		warm, stats, err := AnalyzeIncremental(p2.prog, p2.pre, p2.g, Options{}, loaded)
		if err != nil {
			t.Fatalf("%s: warm: %v", prog.name, err)
		}
		assertSameResult(t, prog.name, p.g, cold, warm)
		assertSameCounters(t, prog.name, cold, warm)
		if stats.Misses != 0 || stats.Resolved != 0 {
			t.Errorf("%s: unchanged program re-solved %d runs (%d components)", prog.name, stats.Misses, stats.Resolved)
		}
		if stats.Hits == 0 {
			t.Errorf("%s: no hits on a warm cache", prog.name)
		}
	}
}

// incrEdits pairs a base program with a one-edit variant; the warm solve of
// the variant must be bit-identical to its cold solve, and for edits in one
// function the untouched components should keep hitting.
var incrEdits = []struct {
	name string
	base string
	edit string
}{
	{
		name: "const-tweak",
		base: `
int g; int h;
int f() { return 3; }
int k() { return 10; }
int main() { g = f(); h = k(); return 0; }
`,
		edit: `
int g; int h;
int f() { return 4; }
int k() { return 10; }
int main() { g = f(); h = k(); return 0; }
`,
	},
	{
		name: "stmt-insert",
		base: `
int g;
int main() {
	int i; int s; s = 0;
	for (i = 0; i < 10; i++) { s = s + i; }
	g = s;
	return 0;
}
`,
		edit: `
int g;
int main() {
	int i; int s; s = 0;
	for (i = 0; i < 10; i++) { s = s + i; s = s + 1; }
	g = s;
	return 0;
}
`,
	},
	{
		name: "stmt-delete",
		base: `
int a; int b; int g;
void f() { a = 1; b = 2; }
void k() { g = a + b; }
int main() { f(); k(); return 0; }
`,
		edit: `
int a; int b; int g;
void f() { a = 1; }
void k() { g = a + b; }
int main() { f(); k(); return 0; }
`,
	},
	{
		name: "body-swap",
		base: `
int g; int h;
int one() { return 1; }
int two() { return 2; }
int main() { g = one(); h = two(); return 0; }
`,
		edit: `
int g; int h;
int one() { return 2; }
int two() { return 1; }
int main() { g = one(); h = two(); return 0; }
`,
	},
}

// TestIncrementalEditMatchesCold is the core differential: snapshot the base
// solve, edit, and check the warm solve of the edited program against its
// cold solve — memories, reachability, and counters bit-identical.
func TestIncrementalEditMatchesCold(t *testing.T) {
	for _, e := range incrEdits {
		for _, bypass := range []bool{false, true} {
			base, _ := buildPipeline(t, e.base, dug.Options{Bypass: bypass})
			cache := incr.NewCache(defaultWidenThreshold, defaultEntryWidenDelay)
			if _, _, err := AnalyzeIncremental(base.prog, base.pre, base.g, Options{}, cache); err != nil {
				t.Fatalf("%s: base: %v", e.name, err)
			}
			data, err := cache.Encode()
			if err != nil {
				t.Fatalf("%s: encode: %v", e.name, err)
			}
			loaded, err := incr.Decode(data)
			if err != nil {
				t.Fatalf("%s: decode: %v", e.name, err)
			}
			ed, _ := buildPipeline(t, e.edit, dug.Options{Bypass: bypass})
			cold := AnalyzeComponents(ed.prog, ed.pre, ed.g, Options{})
			warm, stats, err := AnalyzeIncremental(ed.prog, ed.pre, ed.g, Options{}, loaded)
			if err != nil {
				t.Fatalf("%s: warm: %v", e.name, err)
			}
			label := fmt.Sprintf("%s bypass=%v", e.name, bypass)
			assertSameResult(t, label, ed.g, cold, warm)
			assertSameCounters(t, label, cold, warm)
			if stats.Resolved >= stats.NumComps && stats.NumComps > 2 {
				t.Errorf("%s: edit invalidated every component (%d/%d)", label, stats.Resolved, stats.NumComps)
			}
		}
	}
}

// TestIncrementalGeneratedEdits stresses the differential over generated
// programs with a mechanical constant edit, the shape the fuzz oracle
// automates.
func TestIncrementalGeneratedEdits(t *testing.T) {
	for seed := uint64(70); seed < 76; seed++ {
		cfg := cgen.Default(seed, 200)
		cfg.SwitchEvery = 6
		src := cgen.Generate(cfg)
		edited := cgen.Mutate(src, seed)
		if edited == src {
			t.Fatalf("seed %d: mutator was a no-op", seed)
		}
		solveIncr := func(text string, cache *incr.Cache) (*Result, IncrStats, *dug.Graph) {
			f, err := parser.Parse("gen.c", text)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lower.File(f)
			if err != nil {
				t.Fatal(err)
			}
			pre := prean.Run(prog)
			g := dug.Build(prog, pre, dug.Options{Bypass: true})
			r, stats, err := AnalyzeIncremental(prog, pre, g, Options{}, cache)
			if err != nil {
				t.Fatal(err)
			}
			return r, stats, g
		}
		cache := incr.NewCache(defaultWidenThreshold, defaultEntryWidenDelay)
		solveIncr(src, cache)
		data, err := cache.Encode()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := incr.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		cold, _, g := solveIncr(edited, incr.NewCache(defaultWidenThreshold, defaultEntryWidenDelay))
		warm, stats, _ := solveIncr(edited, loaded)
		label := fmt.Sprintf("seed %d", seed)
		assertSameResult(t, label, g, cold, warm)
		assertSameCounters(t, label, cold, warm)
		if stats.Hits == 0 && stats.NumComps > 10 {
			t.Errorf("%s: no cache hits after a local edit (%d components)", label, stats.NumComps)
		}
	}
}

// TestIncrementalRejectsUnsupported checks the gates: configurations whose
// behavior depends on state outside the hashed inputs must error, not
// mis-cache.
func TestIncrementalRejectsUnsupported(t *testing.T) {
	p, _ := buildPipeline(t, "int main() { return 0; }", dug.Options{})
	cache := incr.NewCache(defaultWidenThreshold, defaultEntryWidenDelay)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"narrow", Options{Narrow: 2}},
		{"timeout", Options{Timeout: 1}},
		{"maxsteps", Options{MaxSteps: 10}},
	} {
		if _, _, err := AnalyzeIncremental(p.prog, p.pre, p.g, tc.opt, cache); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
	mismatched := incr.NewCache(defaultWidenThreshold+1, defaultEntryWidenDelay)
	mismatched.Store("x", &incr.Run{})
	_, _, err := AnalyzeIncremental(p.prog, p.pre, p.g, Options{}, mismatched)
	if err == nil || !strings.Contains(err.Error(), "widening config") {
		t.Errorf("widening mismatch: got %v", err)
	}
}

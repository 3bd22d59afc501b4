package core

import (
	"fmt"
	"testing"

	"sparrow/internal/cgen"
)

const determinismSrc = `
int g; int h; int buf[10];
int add(int x, int y) { return x + y; }
void fill() {
	int i;
	for (i = 0; i < 10; i++) { buf[i] = i; }
}
int down(int n) { if (n <= 0) { return 0; } return down(n-1); }
int main() {
	int i; int s; int *p;
	s = 0;
	for (i = 0; i < 8; i++) { s = add(s, i); }
	fill();
	if (input()) { p = &g; } else { p = &h; }
	*p = s;
	g = down(5) + s;
	return 0;
}
`

// runWorkers analyzes src with the given Workers (ignored by the engine),
// failing on error.
func runWorkers(t *testing.T, d Domain, src string, workers int) *Result {
	t.Helper()
	r, err := AnalyzeSource("det.c", src, Options{
		Domain:  d,
		Mode:    Sparse,
		Narrow:  2,
		Workers: workers,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return r
}

// assertSameAnalysis compares two completed sparse analyses for identical
// solver memories, reachability, steps and alarm sets.
func assertSameAnalysis(t *testing.T, label string, a, b *Result) {
	t.Helper()
	diffs, err := DiffSparseRuns(a, b, 10)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, d := range diffs {
		t.Errorf("%s: %s", label, d)
	}
	aAlarms, bAlarms := a.Alarms(), b.Alarms()
	if len(aAlarms) != len(bAlarms) {
		t.Fatalf("%s: %d vs %d alarms", label, len(aAlarms), len(bAlarms))
	}
	for i := range aAlarms {
		if aAlarms[i].String() != bAlarms[i].String() {
			t.Errorf("%s: alarm %d: %s vs %s", label, i, aAlarms[i], bAlarms[i])
		}
	}
}

// TestAnalyzeDeterministicAcrossWorkers runs the full pipeline twice in one
// process, with Workers 0 and then 1 (which the engine ignores), and
// requires bit-identical outcomes, so Go map iteration order never leaks
// into results.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	sources := map[string]string{
		"handwritten": determinismSrc,
		"generated":   cgen.Generate(cgen.Default(99, 300)),
	}
	for name, src := range sources {
		for _, d := range []Domain{Interval, Octagon} {
			first := runWorkers(t, d, src, 0)
			again := runWorkers(t, d, src, 1)
			label := fmt.Sprintf("%s/%s", name, d)
			assertSameAnalysis(t, label, first, again)
		}
	}
}

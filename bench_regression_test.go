package sparrow_test

import (
	"testing"

	"sparrow/internal/bench"
)

// TestBenchRegression is the counter-regression gate: it re-runs the full
// benchmark suite (testdata/corpus plus the two generated programs) through
// all six analyzers and compares every deterministic work counter against
// the committed baseline BENCH_sparse.json — exactly, since the counters
// are schedule-independent. Wall times are never gated.
//
// When a change legitimately shifts the counters (a precision improvement,
// a new optimization), regenerate the baseline with:
//
//	go run ./cmd/sparrow-bench
//
// and commit the updated BENCH_sparse.json alongside the change.
func TestBenchRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite; skipped with -short")
	}
	base, err := bench.Load("BENCH_sparse.json")
	if err != nil {
		t.Fatalf("baseline missing (regenerate with `go run ./cmd/sparrow-bench`): %v", err)
	}
	progs, err := bench.Suite("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	got, err := bench.Collect(progs, bench.Options{})
	if err != nil {
		t.Fatal(err)
	}
	diffs := bench.Compare(base, got, 0)
	for _, d := range diffs {
		t.Error(d)
	}
	if len(diffs) > 0 {
		t.Log("if the counter change is intended, regenerate: go run ./cmd/sparrow-bench")
	}
}

package exp

import (
	"strings"
	"testing"
	"time"

	"sparrow/internal/core"
	rt "sparrow/internal/runtime"
)

func TestSuiteShape(t *testing.T) {
	s := Suite(1)
	if len(s) < 6 {
		t.Fatalf("suite has %d benchmarks", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i].Seed == s[i-1].Seed {
			t.Errorf("benchmarks %d and %d share a seed", i-1, i)
		}
	}
	// Scaling multiplies statement targets.
	s2 := Suite(2)
	for i := range s {
		if s2[i].Stmts != 2*s[i].Stmts {
			t.Errorf("scale 2: %s has %d stmts want %d", s2[i].Name, s2[i].Stmts, 2*s[i].Stmts)
		}
	}
	if len(OctSuite(1)) >= len(s) {
		t.Error("octagon suite should be a strict prefix")
	}
	// Sources are deterministic.
	if s[0].Source() != s[0].Source() {
		t.Error("Source not deterministic")
	}
}

func TestMeasureSmall(t *testing.T) {
	b := Benchmark{Name: "m", Seed: 77, Stmts: 200, SCC: 2}
	r := Measure(b.Name, b.Source(), core.Options{Domain: core.Interval, Mode: core.Sparse})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Stats.TotalTime <= 0 {
		t.Error("no time measured")
	}
}

func TestFormattingHelpers(t *testing.T) {
	ok := Run{Stats: core.Stats{TotalTime: 1500 * time.Millisecond}}
	over := Run{Err: &core.BudgetError{Reason: rt.ReasonDeadline}}
	canceled := Run{Err: &core.BudgetError{Reason: rt.ReasonCanceled}}
	if got := cell(ok, false); got != "1.50" {
		t.Errorf("cell = %q", got)
	}
	if got := cell(over, false); got != "∞" {
		t.Errorf("deadline cell = %q", got)
	}
	if got := cell(canceled, false); got != "err" {
		t.Errorf("canceled cell = %q", got)
	}
	if got := memCell(over, false); got != "-" {
		t.Errorf("deadline memCell = %q", got)
	}
	if got := speedup(ok, over, false, false); got != "-" {
		t.Errorf("speedup with deadline = %q", got)
	}
	if got := cell(ok, true); got != "∞" {
		t.Errorf("skipped cell = %q", got)
	}
	slow := Run{Stats: core.Stats{TotalTime: 10 * time.Second}, PeakHeap: 100 << 20}
	fast := Run{Stats: core.Stats{TotalTime: 1 * time.Second}, PeakHeap: 10 << 20}
	if got := speedup(slow, fast, false, false); got != "10x" {
		t.Errorf("speedup = %q", got)
	}
	if got := speedup(slow, over, false, false); got != "-" {
		t.Errorf("speedup with a deadline breach = %q", got)
	}
	if got := memSave(slow, fast, false, false); got != "90%" {
		t.Errorf("memSave = %q", got)
	}
	if got := memCell(fast, false); got != "10" {
		t.Errorf("memCell = %q", got)
	}
}

// TestPerfTableDeadline pins the per-analyzer budget: a breach renders
// every analyzer's time as ∞ and its figures as "-", and is no error.
func TestPerfTableDeadline(t *testing.T) {
	var sb strings.Builder
	suite := []Benchmark{{Name: "d", Seed: 5, Stmts: 400, SCC: 2}}
	if err := PerfTable(&sb, suite, PerfOptions{Domain: core.Interval, Timeout: time.Nanosecond}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header+1 row, got %d lines:\n%s", len(lines), sb.String())
	}
	row := strings.Fields(lines[1])
	if len(row) != 16 {
		t.Fatalf("row has %d cells: %q", len(row), lines[1])
	}
	for i, c := range row[2:] {
		want := "-"
		switch i + 2 {
		case 2, 4, 10: // Vanilla(s), Base(s), Sparse(s)
			want = "∞"
		}
		if c != want {
			t.Errorf("cell %d = %q want %q (row %q)", i+2, c, want, lines[1])
		}
	}
}

func TestTablePrecisionSmall(t *testing.T) {
	var sb strings.Builder
	suite := []Benchmark{{Name: "p", Seed: 55, Stmts: 200, SCC: 2}}
	if err := TablePrecision(&sb, suite, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Alarms(du-chains)") {
		t.Errorf("header missing: %s", sb.String())
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header+1 row, got %d lines", len(lines))
	}
}

package core

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/octsem"
	rt "sparrow/internal/runtime"
)

// counterRun analyzes src with an attached collector and returns the full
// counter section of the report.
func counterRun(t *testing.T, d Domain, m Mode, src string, workers int) map[string]int64 {
	t.Helper()
	col := metrics.New()
	r, err := AnalyzeSource("metrics.c", src, Options{
		Domain:  d,
		Mode:    m,
		Narrow:  2,
		Workers: workers,
		Metrics: col,
	})
	if err != nil {
		t.Fatalf("domain=%v mode=%v workers=%d: %v", d, m, workers, err)
	}
	r.Alarms() // populate the alarm counter
	rep := r.MetricsReport()
	if rep == nil {
		t.Fatalf("MetricsReport returned nil despite Options.Metrics")
	}
	return rep.Counters
}

// assertSameCounters runs src twice in one process, with Workers 0 and
// then 1 (which the engine ignores), and requires bit-identical counters
// from the two runs.
func assertSameCounters(t *testing.T, src string) {
	t.Helper()
	first := counterRun(t, Interval, Sparse, src, 0)
	again := counterRun(t, Interval, Sparse, src, 1)
	if !reflect.DeepEqual(first, again) {
		for k, v := range first {
			if again[k] != v {
				t.Errorf("counter %s: %d, then %d", k, v, again[k])
			}
		}
	}
}

// TestMetricsDeterministicAcrossWorkers is the counter determinism
// guarantee: every counter in the report — worklist pops, joins, widenings,
// DUG shape, memory gauges, alarms — is bit-identical across
// repeated runs of one configuration, so Go map iteration order never leaks
// into the report.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	assertSameCounters(t, determinismSrc)
}

// TestMetricsDeterministicGenerated repeats the check on a larger generated
// program.
func TestMetricsDeterministicGenerated(t *testing.T) {
	assertSameCounters(t, cgen.Generate(cgen.Default(7, 400)))
}

// TestMetricsPopulated sanity-checks that each pipeline stage actually
// reported: a run of every analyzer mode must yield nonzero structural
// counters and pops.
func TestMetricsPopulated(t *testing.T) {
	cases := []struct {
		name   string
		domain Domain
		mode   Mode
	}{
		{"interval-vanilla", Interval, Vanilla},
		{"interval-base", Interval, Base},
		{"interval-sparse", Interval, Sparse},
		{"octagon-vanilla", Octagon, Vanilla},
		{"octagon-base", Octagon, Base},
		{"octagon-sparse", Octagon, Sparse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := counterRun(t, tc.domain, tc.mode, determinismSrc, 0)
			for _, key := range []string{"ir_procs", "ir_points", "ir_statements", "ir_locs", "prean_passes", "worklist_pops", "reached_points", "mem_total_entries"} {
				if c[key] <= 0 {
					t.Errorf("%s: counter %s = %d, want > 0", tc.name, key, c[key])
				}
			}
			if tc.mode == Sparse {
				for _, key := range []string{"dug_nodes", "dug_edges", "dug_defs", "dug_uses"} {
					if c[key] <= 0 {
						t.Errorf("%s: counter %s = %d, want > 0", tc.name, key, c[key])
					}
				}
			}
			if tc.domain == Octagon && c["packs"] <= 0 {
				t.Errorf("%s: packs = %d, want > 0", tc.name, c["packs"])
			}
		})
	}
}

// TestMetricsPhaseTimings checks the per-phase wall-time section: every
// phase the pipeline entered must be present with a nonnegative duration.
func TestMetricsPhaseTimings(t *testing.T) {
	col := metrics.New()
	r, err := AnalyzeSource("metrics.c", determinismSrc, Options{
		Domain:  Interval,
		Mode:    Sparse,
		Metrics: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Alarms()
	rep := r.MetricsReport()
	for _, ph := range []string{"parse", "lower", "prean", "dug_build", "fixpoint", "check"} {
		if _, ok := rep.TimingsNS[ph]; !ok {
			t.Errorf("phase %s missing from timings", ph)
		}
		if rep.TimingsNS[ph] < 0 {
			t.Errorf("phase %s has negative duration %d", ph, rep.TimingsNS[ph])
		}
	}
}

// TestMetricsReportStamp checks the configuration stamp on the report.
func TestMetricsReportStamp(t *testing.T) {
	col := metrics.New()
	r, err := AnalyzeSource("metrics.c", determinismSrc, Options{
		Domain:  Octagon,
		Mode:    Base,
		Metrics: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.MetricsReport()
	if rep.Schema != metrics.Schema {
		t.Errorf("schema %d, want %d", rep.Schema, metrics.Schema)
	}
	if rep.Domain != "octagon" || rep.Mode != "base" {
		t.Errorf("stamp %s/%s, want octagon/base", rep.Domain, rep.Mode)
	}
}

// TestMetricsNilCollectorPath makes sure a run without a collector still
// works and reports a nil metrics snapshot.
func TestMetricsNilCollectorPath(t *testing.T) {
	r, err := AnalyzeSource("metrics.c", determinismSrc, Options{Domain: Interval, Mode: Sparse})
	if err != nil {
		t.Fatal(err)
	}
	if rep := r.MetricsReport(); rep != nil {
		t.Fatalf("expected nil report without a collector, got %+v", rep)
	}
}

// TestEntryCountersMatchMemories pins mem_peak_entries and
// mem_total_entries, which count bound slots, to the max and sum of Len over
// the per-node Acc and Out memories built from the slots, for both sparse
// domains on the corpus and a gen-1000 program. A drift in the counter gate
// then points at the counter, not the solver.
func TestEntryCountersMatchMemories(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/corpus/*.c")
	if err != nil || len(paths) != 14 {
		t.Fatalf("corpus glob: %d files, %v", len(paths), err)
	}
	srcs := map[string]string{"gen-1000": cgen.Generate(cgen.Default(43, 1000))}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	for name, src := range srcs {
		for _, opt := range []Options{{Domain: Interval}, {Domain: Interval, Narrow: 2}, {Domain: Octagon}} {
			opt.Mode = Sparse
			opt.Metrics = metrics.New()
			r, err := AnalyzeSource(name, src, opt)
			if err != nil {
				t.Fatalf("%s %v: %v", name, opt.Domain, err)
			}
			var peak, total int64
			for n := range r.graph.NumNodes() {
				id := dug.NodeID(n)
				var lens [2]int
				if r.sres != nil {
					lens = [2]int{mem.FromSorted(r.sres.Acc(id)).Len(), mem.FromSorted(r.sres.Out(id)).Len()}
				} else {
					lens = [2]int{octsem.FromSorted(r.osres.Acc(id)).Len(), octsem.FromSorted(r.osres.Out(id)).Len()}
				}
				for _, l := range lens {
					peak = max(peak, int64(l))
					total += int64(l)
				}
			}
			c := r.MetricsReport().Counters
			if c["mem_peak_entries"] != peak || c["mem_total_entries"] != total {
				t.Errorf("%s %v narrow=%d: counters peak %d total %d, memories peak %d total %d", name, opt.Domain, opt.Narrow,
					c["mem_peak_entries"], c["mem_total_entries"], peak, total)
			}
		}
	}
}

// goroutineProfile returns the goroutine profile in its debug=1 text form,
// which prints each goroutine group's pprof labels.
func goroutineProfile(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestPhaseProfilerLabels: while the fixpoint runs, the analyzing goroutine
// carries the pprof label phase=fixpoint (a fault hook at a fixpoint
// checkpoint reads the goroutine profile), and the run leaves no phase
// label behind.
func TestPhaseProfilerLabels(t *testing.T) {
	var during string
	hook := func(p rt.Phase, n uint64) {
		if p == rt.PhaseFix && n == 1 {
			during = goroutineProfile(t)
		}
	}
	_, err := AnalyzeSource("labels.c", cgen.Generate(cgen.Default(3, 300)), Options{
		Domain: Interval, Mode: Sparse, Metrics: metrics.New(), FaultHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	if during == "" {
		t.Fatal("the hook never fired at a fixpoint checkpoint")
	}
	if !strings.Contains(during, `"phase":"fixpoint"`) {
		t.Errorf("goroutine profile at a fixpoint checkpoint has no phase=fixpoint label:\n%s", during)
	}
	if after := goroutineProfile(t); strings.Contains(after, `"phase":`) {
		t.Errorf("a phase label outlived the run:\n%s", after)
	}
}

package main

import (
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sparrow/internal/cgen"
	"sparrow/internal/check"
	"sparrow/internal/core"
	"sparrow/internal/metrics"
)

// tracedRun runs a traced pass of each of ins at the CLI's default
// configuration on two cores and collects the per-layer values.
func tracedRun(t *testing.T, w workload, ins []input) (*tracer, map[string][]float64, []tracedInput) {
	t.Helper()
	kinds, err := w.kinds()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Domain: w.domain, Mode: w.mode, Workers: 2, Checkers: kinds}
	tr := newTracer()
	layers := map[string][]float64{}
	var out []tracedInput
	for i, in := range ins {
		v, ti, err := tracedPass(tr, i, in, opt, w.restricted)
		if err != nil {
			t.Fatal(err)
		}
		for k, x := range v {
			layers[k] = append(layers[k], x)
		}
		out = append(out, ti)
	}
	return tr, layers, out
}

// TestTracedPassSmoke runs the traced pass and every in-process check on a
// generated program and on overruns.c, whose alarms exercise the checker
// comparison.
func TestTracedPassSmoke(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "testdata", "corpus", "overruns.c"))
	if err != nil {
		t.Fatal(err)
	}
	ins := []input{
		{name: "gen400.c", src: cgen.Generate(cgen.Default(7, 400))},
		{name: "overruns.c", src: string(src)},
	}
	w, _ := workloadByName("checkers-3k")
	b := &bench{c: config{seed: 7}, w: w, ins: ins, tr: newTracer(), reps: make([]*metrics.Report, len(ins))}
	b.opt = core.Options{Domain: w.domain, Mode: w.mode, Workers: 2, Checkers: check.AllKinds}
	// Reports of earlier passes stand in for the CLI's: the counters are
	// deterministic, so the identity check holds between passes too.
	for i, in := range ins {
		_, ti, err := tracedPass(newTracer(), 0, in, b.opt, true)
		if err != nil {
			t.Fatal(err)
		}
		b.reps[i] = ti.rep
	}
	layers := map[string][]float64{}
	for round := 0; round < 2; round++ {
		for i := range ins {
			for k, x := range b.trace(round*len(ins)+i, i, true) {
				layers[k] = append(layers[k], x)
			}
		}
	}
	if want := 2 * len(ins) * 4; b.t.attempted != want || b.t.failed != 0 {
		t.Errorf("checks: %d attempted, %d failed %v; want %d, 0", b.t.attempted, b.t.failed, b.t.problems, want)
	}
	tr := b.tr

	// In trace.json, the children of a span never add up to more than it.
	sum := map[int]int64{}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Parent >= 0 {
			sum[s.Parent] += s.dur()
		}
	}
	for id, d := range sum {
		if p := tr.spans[id]; d > p.dur() {
			t.Errorf("children of %s (span %d) sum to %d ns, more than its %d ns", p.Name, id, d, p.dur())
		}
	}

	for _, k := range []string{"dug.triples", "fixpoint.steps", "restrict.steps"} {
		if xs := layers[k]; xs[0] <= 0 || xs[0] != xs[2] || xs[1] != xs[3] {
			t.Errorf("%s = %v, want a positive count that repeats on the same file", k, xs)
		}
	}
	if a := layers["check.alarms"]; a[1] == 0 {
		t.Errorf("check.alarms = %v, want overruns.c's alarms", a)
	}
	if r := layers["restrict.triples_ratio"][0]; r <= 0 || r > 1 {
		t.Errorf("restrict.triples_ratio = %v, want within (0, 1]", r)
	}
}

// TestCheckersAgainstSequentialRun pins a program on which the default
// component solver and the sequential solvers report different buffer
// overruns: the restricted solves must agree with the sequential full run.
func TestCheckersAgainstSequentialRun(t *testing.T) {
	w, _ := workloadByName("checkers-3k")
	in := input{name: "gen3000-22-04.c", src: cgen.Generate(cgen.Default(22<<16|4, 3000))}
	_, _, traced := tracedRun(t, w, []input{in})
	opt := core.Options{Domain: w.domain, Mode: w.mode, Workers: 2, Checkers: check.AllKinds}
	if err := checkCheckers(in, opt, traced[0].runs); err != nil {
		t.Error(err)
	}
}

// TestMetricsMatchSpec fails when the benchmark computes a metric that
// BENCHMARK.json does not declare, or the file declares one the benchmark
// does not compute.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("base-500") // no DUG and no restriction: layers that did not run still report
	tr, layers, _ := tracedRun(t, w, []input{{name: "gen100.c", src: cgen.Generate(cgen.Default(3, 100))}})
	if err := stampUnits(sp.PerLayer, perLayer(layers, []float64{0.5}, tr.spans), 1); err != nil {
		t.Error(err)
	}
	xs := []float64{1, 2, 3}
	if err := stampUnits(sp.EndToEnd, endToEnd(xs, xs, xs, xs), 1); err != nil {
		t.Error(err)
	}
}

// TestWrongVerdictsFail counts the corpus checks against the real verdict
// table and against one with two wrong entries.
func TestWrongVerdictsFail(t *testing.T) {
	w, _ := workloadByName("corpus")
	ins, err := w.writeInputs("..", 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, traced := tracedRun(t, w, ins)
	wrong := maps.Clone(corpusVerdicts)
	wrong["overruns.c"] = verdict{buf: 3, null: 1} // claims a bug the analyzer does not report
	wrong["matrix.c"] = verdict{buf: 0, null: 1}
	for _, c := range []struct {
		table  map[string]verdict
		failed int
	}{{corpusVerdicts, 0}, {wrong, 2}} {
		var tl tally
		for i, ti := range traced {
			tl.record(checkVerdict(c.table, ins[i].name, ti.rep))
		}
		if tl.attempted != len(corpusVerdicts) || tl.failed != c.failed {
			t.Errorf("fail_frac = %d/%d, want %d/%d: %v", tl.failed, tl.attempted, c.failed, len(corpusVerdicts), tl.problems)
		}
	}
}

func TestCheckChild(t *testing.T) {
	w, _ := workloadByName("sparse-4k")
	rep := func(domain, mode string, alarms int64) *metrics.Report {
		return &metrics.Report{Domain: domain, Mode: mode, Counters: map[string]int64{"alarms": alarms}}
	}
	in := input{name: "p.c"}
	cases := []struct {
		r    childRun
		pass bool
	}{
		{childRun{exit: 0, rep: rep("interval", "sparse", 0)}, true},
		{childRun{exit: 1, rep: rep("interval", "sparse", 2)}, true},
		{childRun{exit: 0, rep: rep("interval", "sparse", 2)}, false}, // alarms, yet exit 0
		{childRun{exit: 1, rep: rep("interval", "sparse", 0)}, false}, // exit 1 without alarms
		{childRun{exit: 0, rep: rep("interval", "base", 0)}, false},   // another mode ran
		{childRun{exit: 4, stderr: "degraded"}, false},
		{childRun{exit: -1, stderr: "killed after " + time.Minute.String()}, false},
	}
	for i, c := range cases {
		if err := checkChild(w, in, c.r); (err == nil) != c.pass {
			t.Errorf("case %d: checkChild = %v, want pass=%v", i, err, c.pass)
		}
	}
}

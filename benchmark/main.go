// Command benchmark times the sparrow CLI on one workload and, with -trace 1,
// splits the time into the analyzer's layers with in-process traced passes.
// It checks every output it measures and prints each metric with its unit,
// then one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it from the repository root through benchmark/run.sh, which builds the
// CLI and this program first:
//
//	bash benchmark/run.sh --workload sparse-4k --seed 7 --seconds 18 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sparrow/internal/core"
	"sparrow/internal/metrics"
)

const (
	// setupReps is how often a run sets up: each set-up makes and writes the
	// suite and warms the CLI up on it, and setup_s is the median.
	setupReps = 5
	// minRuns is the fewest CLI runs a run times, however short -seconds
	// is, so that its median and quartiles exist.
	minRuns = 3
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	bin      string
	spawn    string
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "workload to run (the names are in BENCHMARK.json)")
	flag.Uint64Var(&c.seed, "seed", 7, "seed of the generated programs and of the interpreter's inputs")
	flag.Float64Var(&c.seconds, "seconds", 18, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: time the CLI and report the end-to-end metrics; 1: alternate CLI runs with traced in-process passes and report the per-layer metrics")
	flag.StringVar(&c.out, "out", "", "directory for results.json and trace.json (default .bench_build/results/<workload>)")
	flag.StringVar(&c.bin, "sparrow", filepath.Join(".bench_build", "bin", "sparrow"), "the sparrow binary to time")
	flag.StringVar(&c.spawn, "spawn", filepath.Join(".bench_build", "bin", "spawn"), "the spawn program that runs the CLI (see spawn/main.go)")
	flag.Parse()
	if flag.NArg() != 0 || c.workload == "" || traceFlag < 0 || traceFlag > 1 || c.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	c.trace = traceFlag == 1
	if c.out == "" {
		c.out = filepath.Join(".bench_build", "results", c.workload)
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// tally counts operations — CLI runs, traced passes and in-process checks —
// and the ones that failed.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.problems = append(t.problems, err.Error())
	}
}

// bench is one run in progress.
type bench struct {
	c       config
	w       workload
	spawner *spawner
	opt     core.Options // the CLI's configuration, for the traced passes
	ins     []input
	t       tally
	cal     calibration
	tr      *tracer
	reps    []*metrics.Report // the latest CLI report of each input
}

// cli runs the CLI on input i and checks the run.
func (b *bench) cli(i int) (childRun, error) {
	in := b.ins[i]
	r, err := b.spawner.run(in.path)
	if err != nil {
		return r, err
	}
	b.t.record(checkChild(b.w, in, r))
	b.reps[i] = r.rep
	return r, nil
}

// trace runs a traced pass of input i and the in-process checks on it:
// identity with the CLI always, soundness and the checker comparison when
// full is set.
func (b *bench) trace(pass, i int, full bool) map[string]float64 {
	in := b.ins[i]
	v, ti, err := tracedPass(b.tr, pass, in, b.opt, b.w.restricted)
	b.t.record(err)
	if err != nil {
		return nil
	}
	if b.reps[i] != nil { // a failed CLI run is already counted
		b.t.record(wrap(in.name, checkIdentity(b.reps[i], ti.rep)))
	}
	if full {
		values := b.w.domain == core.Interval && b.w.mode == core.Sparse
		b.t.record(wrap(in.name, checkSoundness(ti.res, b.c.seed, values)))
		if b.w.restricted {
			b.t.record(wrap(in.name, checkCheckers(in, b.opt, ti.runs)))
		}
	}
	return v
}

func run(c config) error {
	w, ok := workloadByName(c.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	spawn, err := startSpawner(c.spawn, c.bin, w.flags())
	if err != nil {
		return err
	}
	defer spawn.stop()
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	kinds, err := w.kinds()
	if err != nil {
		return err
	}
	b := &bench{c: c, w: w, spawner: spawn, tr: newTracer()}
	dir := filepath.Join(".bench_build", "inputs", fmt.Sprintf("%s-seed%d", w.name, c.seed))
	b.cal.measure()

	var setup []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if b.ins, err = w.writeInputs(".", c.seed, dir); err != nil {
			return err
		}
		b.reps = make([]*metrics.Report, len(b.ins))
		for j := 0; j < w.warmups; j++ {
			if _, err := b.cli(j % len(b.ins)); err != nil {
				return err
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		b.cal.measure()
	}
	if b.reps[0] == nil {
		return fmt.Errorf("the CLI reported nothing on %s", b.ins[0].name)
	}
	// The traced passes rerun the CLI's configuration: its domain and mode
	// (checkChild holds the report to the requested ones) and its worker
	// count, which defaults to the core count.
	b.opt = core.Options{Domain: w.domain, Mode: w.mode, Workers: b.reps[0].Workers, Checkers: kinds}
	traced := min(w.traced, len(b.ins))

	var values map[string]metricValue
	var decls []metricDecl
	var runs int
	start := time.Now()
	if !c.trace {
		var walls, cpus, rss []float64
		for i := 0; i < minRuns || time.Since(start).Seconds() < c.seconds; i++ {
			r, err := b.cli(i % len(b.ins))
			if err != nil {
				return err
			}
			walls, cpus = append(walls, r.wall.Seconds()), append(cpus, r.cpu.Seconds())
			rss = append(rss, float64(r.rssKB)/1024)
			b.cal.maybe()
		}
		for i := 0; i < traced; i++ {
			if b.reps[i] == nil { // not reached by a short run
				if _, err := b.cli(i); err != nil {
					return err
				}
			}
			b.trace(i, i, true)
		}
		values, decls, runs = endToEnd(walls, cpus, rss, setup), sp.EndToEnd, len(walls)
	} else {
		// Whole rounds over the traced files, so that each count's median
		// is over the same files whatever the machine's speed.
		var walls []float64
		layers := map[string][]float64{}
		for round := 0; round == 0 || time.Since(start).Seconds() < c.seconds; round++ {
			for i := 0; i < traced; i++ {
				r, err := b.cli(i)
				if err != nil {
					return err
				}
				walls = append(walls, r.wall.Seconds())
				for k, x := range b.trace(round*traced+i, i, round == 0) {
					layers[k] = append(layers[k], x)
				}
				runtime.GC() // leave the CLI a quiet machine
				b.cal.maybe()
			}
		}
		if len(layers) == 0 {
			return fmt.Errorf("no traced pass succeeded: %s", b.t.problems[0])
		}
		values, decls, runs = perLayer(layers, walls, b.tr.spans), sp.PerLayer, len(walls)
	}
	scale := b.cal.scale()
	if err := stampUnits(decls, values, scale); err != nil {
		return err
	}

	for _, p := range b.t.problems {
		fmt.Fprintln(os.Stderr, "benchmark: FAIL:", p)
	}
	for _, d := range decls {
		m := values[d.Name]
		fmt.Printf("%-24s %14.6g %-6s n=%d q1=%.6g q3=%.6g", d.Name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
		if m.Beyond != nil {
			fmt.Printf(" beyond=%d", *m.Beyond)
		}
		if d.Bound > 0 {
			fmt.Printf(" bound=%g%%", 100*d.Bound)
		}
		fmt.Println()
	}
	fmt.Printf("workload=%s seed=%d runs=%d files=%d scale=%.4f nproc=%d attempted=%d failed=%d\n",
		w.name, c.seed, runs, len(b.ins), scale, runtime.NumCPU(), b.t.attempted, b.t.failed)

	if err := b.writeResults(runs, scale, values); err != nil {
		return err
	}
	type short struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]short `json:"metrics"`
	}{b.t.failed == 0, b.t.attempted, b.t.failed, map[string]short{}}
	for k, m := range values {
		line.Metrics[k] = short{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func wrap(name string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// metricValue is a reported metric with the spread of its samples.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Beyond *int    `json:"beyond,omitempty"` // samples above a percentile
}

func medianValue(xs []float64) metricValue {
	s := summarize(xs)
	return metricValue{Value: s.Median, N: s.N, Q1: s.Q1, Q3: s.Q3}
}

// tailPercentile is the percentile wall_p75_s reports: the highest that
// keeps at least ten CLI runs beyond it on every workload, whose runs
// number 40 to 5000.
const tailPercentile = 75

// endToEnd makes the end-to-end metrics of the timed CLI runs (seconds and
// megabytes each) and the set-ups (seconds each).
func endToEnd(walls, cpus, rss, setup []float64) map[string]metricValue {
	tail := medianValue(walls)
	var beyond int
	tail.Value, beyond = percentile(sorted(walls), tailPercentile)
	tail.Beyond = &beyond
	return map[string]metricValue{
		"wall_s":      medianValue(walls),
		"wall_p75_s":  tail,
		"cpu_s":       medianValue(cpus),
		"peak_rss_mb": medianValue(rss),
		"setup_s":     medianValue(setup),
	}
}

// perLayer makes the per-layer metrics: the median of each traced pass
// value, and trace.gap_s, the median CLI run minus the median traced pass.
func perLayer(layers map[string][]float64, walls []float64, spans []span) map[string]metricValue {
	values := map[string]metricValue{}
	for k, xs := range layers {
		values[k] = medianValue(xs)
	}
	var passes []float64
	for _, s := range spans {
		if s.Name == "pass" {
			passes = append(passes, float64(s.dur())/1e9)
		}
	}
	values["trace.gap_s"] = medianValue([]float64{summarize(walls).Median - summarize(passes).Median})
	return values
}

// stampUnits gives each value the unit BENCHMARK.json declares for it and
// scales times (unit s) and rates (unit 1/s) to the reference speed. It
// fails if the benchmark computed a metric the file does not declare or the
// file declares one the benchmark did not compute.
func stampUnits(decls []metricDecl, values map[string]metricValue, scale float64) error {
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Name] = true
		m, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which the benchmark does not compute", d.Name)
		}
		m.Unit = d.Unit
		switch d.Unit {
		case "s":
			m.Value, m.Q1, m.Q3 = m.Value*scale, m.Q1*scale, m.Q3*scale
		case "1/s":
			m.Value, m.Q1, m.Q3 = m.Value/scale, m.Q1/scale, m.Q3/scale
		}
		values[d.Name] = m
	}
	var extra []string
	for k := range values {
		if !declared[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("the benchmark computes %v, which BENCHMARK.json does not declare", extra)
	}
	return nil
}

// writeResults writes results.json, and trace.json for a traced run, to the
// run's output directory.
func (b *bench) writeResults(runs int, scale float64, values map[string]metricValue) error {
	if err := os.MkdirAll(b.c.out, 0o755); err != nil {
		return err
	}
	res := map[string]any{
		"workload":    b.w.name,
		"seed":        b.c.seed,
		"seconds":     b.c.seconds,
		"trace":       b.c.trace,
		"cli_runs":    runs,
		"files":       len(b.ins),
		"scale":       scale, // raw time = value / scale
		"reference_s": b.cal.samples,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"attempted":   b.t.attempted,
		"failed":      b.t.failed,
		"problems":    b.t.problems,
		"metrics":     values,
	}
	if err := writeJSON(filepath.Join(b.c.out, "results.json"), res); err != nil {
		return err
	}
	if !b.c.trace {
		return nil
	}
	return writeJSON(filepath.Join(b.c.out, "trace.json"), map[string]any{"spans": b.tr.spans})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

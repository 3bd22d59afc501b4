// Command sparrow-bench runs the benchmark suite (test corpus + generated
// programs) through all six analyzers and writes the schema-versioned
// counter snapshot BENCH_sparse.json. With -check it instead diffs the
// fresh run against the committed baseline and exits non-zero on any
// counter regression — the CI gate behind TestBenchRegression.
//
// Every run (write or -check) also emits a report-only timing/allocation
// snapshot — wall ns, per-phase timer ns, and bytes allocated per suite
// entry — to -times (default BENCH_times.json, empty disables). That file
// is never gated; it exists so CI can archive the performance trajectory.
//
// With -compare, no analysis runs at all: the two positional arguments are
// times snapshots (old, new) and the per-entry wall/allocation deltas are
// printed with percent change — the structured replacement for hand-written
// before/after notes.
//
// Usage:
//
//	sparrow-bench [-corpus DIR] [-out FILE] [-check] [-snapshot FILE]
//	              [-tol F] [-timings] [-times FILE] [-v]
//	sparrow-bench -compare OLD.json NEW.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sparrow/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code
// (0 ok, 1 regression, 2 usage or run error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparrow-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	corpus := fs.String("corpus", "testdata/corpus", "corpus directory (*.c)")
	out := fs.String("out", "BENCH_sparse.json", "snapshot output path")
	check := fs.Bool("check", false, "compare against -snapshot instead of writing -out")
	snapshot := fs.String("snapshot", "BENCH_sparse.json", "baseline snapshot for -check")
	tol := fs.Float64("tol", 0, "relative counter tolerance for -check (0 = exact; counters are deterministic)")
	timings := fs.Bool("timings", false, "record per-phase wall times in the snapshot (not for committed baselines)")
	times := fs.String("times", "BENCH_times.json", "report-only timing/allocation snapshot path (empty disables)")
	gen := fs.Bool("gen", true, "include the generated (cgen-scaled) programs in the suite")
	verbose := fs.Bool("v", false, "print one line per completed entry")
	compare := fs.Bool("compare", false, "diff two times snapshots (old.json new.json) instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sparrow-bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: sparrow-bench -compare OLD.json NEW.json")
			return 2
		}
		oldSnap, err := bench.LoadTimes(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		newSnap, err := bench.LoadTimes(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		for _, line := range bench.CompareTimes(oldSnap, newSnap) {
			fmt.Fprintln(stdout, line)
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: sparrow-bench [flags]")
		fs.Usage()
		return 2
	}
	progs, err := bench.CorpusPrograms(*corpus)
	if err != nil {
		return fail(err)
	}
	if *gen {
		progs = append(progs, bench.GeneratedPrograms()...)
	}
	opt := bench.Options{Timings: *timings}
	if *verbose {
		opt.Progress = func(line string) { fmt.Fprintln(stderr, line) }
	}
	snap, timesSnap, err := bench.CollectWithTimes(progs, opt)
	if err != nil {
		return fail(err)
	}
	if *times != "" {
		if err := timesSnap.Save(*times); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "sparrow-bench: wrote report-only times to %s\n", *times)
	}

	if *check {
		base, err := bench.Load(*snapshot)
		if err != nil {
			return fail(err)
		}
		diffs := bench.Compare(base, snap, *tol)
		if len(diffs) > 0 {
			fmt.Fprintf(stderr, "sparrow-bench: %d counter regression(s) vs %s:\n", len(diffs), *snapshot)
			for _, d := range diffs {
				fmt.Fprintf(stderr, "  %s\n", d)
			}
			return 1
		}
		fmt.Fprintf(stdout, "sparrow-bench: %d entries match %s\n", len(snap.Entries), *snapshot)
		return 0
	}
	if err := snap.Save(*out); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "sparrow-bench: wrote %d entries to %s\n", len(snap.Entries), *out)
	return 0
}

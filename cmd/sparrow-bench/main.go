// Command sparrow-bench runs the benchmark suite (test corpus + generated
// programs) through all six analyzers and writes the schema-versioned
// counter snapshot BENCH_sparse.json. With -check it instead diffs the
// fresh run against the committed baseline and exits non-zero on any
// counter regression — the CI gate behind TestBenchRegression. -check
// writes no file.
//
// It measures no time: the counters are exact and deterministic, and the
// repeated end-to-end timing harness is benchmark/.
//
// Usage:
//
//	sparrow-bench [-corpus DIR] [-gen=false] [-out FILE] [-v]
//	sparrow-bench -check [-corpus DIR] [-gen=false] [-snapshot FILE] [-v]
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
	gen := fs.Bool("gen", true, "include the generated (cgen-scaled) programs in the suite")
	verbose := fs.Bool("v", false, "print one line per completed entry")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sparrow-bench:", err)
		return 2
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
	var opt bench.Options
	if *verbose {
		opt.Progress = func(line string) { fmt.Fprintln(stderr, line) }
	}
	snap, err := bench.Collect(progs, opt)
	if err != nil {
		return fail(err)
	}

	if *check {
		base, err := bench.Load(*snapshot)
		if err != nil {
			return fail(err)
		}
		diffs := bench.Compare(base, snap)
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

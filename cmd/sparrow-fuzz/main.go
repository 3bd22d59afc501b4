// Command sparrow-fuzz runs a differential-fuzzing campaign: N generated
// programs, each analyzed under all six configurations (Interval/Octagon ×
// Vanilla/Base/Sparse) plus the concrete interpreter and repeated sparse
// runs, checked against the seven oracles of internal/fuzz
// (soundness, precision, agreement, determinism, restriction, incremental,
// faults). Violating
// programs are delta-debugged to a minimal repro and written, with an
// oracle transcript, to the -out directory.
//
// Usage:
//
//	sparrow-fuzz [-n N] [-seed S] [-workers W] [-stmts N] [-shrink]
//	             [-out DIR] [-stats-json] [-oracles LIST]
//
// The exit status is nonzero when any oracle fired (1) or the campaign
// itself could not run (2).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"sparrow/internal/fuzz"
	"sparrow/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// campaignSummary is the -stats-json shape: a schema-versioned digest of
// the campaign suitable for CI artifact diffing.
type campaignSummary struct {
	Schema   int              `json:"schema"`
	Programs int              `json:"programs"`
	Stmts    int              `json:"stmts"`
	Seed     uint64           `json:"seed"`
	Failures []failureSummary `json:"failures"`
}

type failureSummary struct {
	Seed    uint64   `json:"seed"`
	Oracles []string `json:"oracles"`
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparrow-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 200, "number of programs to generate")
	seed := fs.Uint64("seed", 1, "first generation seed (program i uses seed+i)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel program runs")
	stmts := fs.Int("stmts", 120, "approximate statements per generated program")
	shrink := fs.Bool("shrink", true, "minimize violating programs before reporting")
	out := fs.String("out", "testdata/fuzz", "artifact directory for repros and transcripts (\"\" = none)")
	statsJSON := fs.Bool("stats-json", false, "print a machine-readable campaign summary (JSON) to stdout")
	oracleSpec := fs.String("oracles", "all", "comma-separated oracle names to check (soundness, precision, agreement, determinism, restriction, incremental, faults, or all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: sparrow-fuzz [flags]")
		fs.Usage()
		return 2
	}
	oracles, err := fuzz.OraclesByName(*oracleSpec)
	if err != nil {
		fmt.Fprintln(stderr, "sparrow-fuzz:", err)
		return 2
	}

	sum, err := fuzz.Run(fuzz.Options{
		Seed:    *seed,
		N:       *n,
		Workers: *workers,
		Stmts:   *stmts,
		Shrink:  *shrink,
		OutDir:  *out,
		Oracles: oracles,
		Log:     stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sparrow-fuzz:", err)
		return 2
	}
	if *statsJSON {
		cs := campaignSummary{
			Schema:   metrics.Schema,
			Programs: sum.Programs,
			Stmts:    *stmts,
			Seed:     *seed,
			Failures: []failureSummary{},
		}
		for _, rep := range sum.Failures {
			f := failureSummary{Seed: rep.Seed}
			for _, v := range rep.Violations {
				f.Oracles = append(f.Oracles, v.Oracle)
			}
			cs.Failures = append(cs.Failures, f)
		}
		b, merr := json.MarshalIndent(cs, "", "  ")
		if merr != nil {
			fmt.Fprintln(stderr, "sparrow-fuzz:", merr)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if len(sum.Failures) > 0 {
		return 1
	}
	return 0
}

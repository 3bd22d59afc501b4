// Command sparrow analyzes a C-like source file and reports invariants and
// alarms.
//
// Usage:
//
//	sparrow [-domain interval|octagon] [-mode vanilla|base|sparse]
//	        [-checkers buf,null,div,uninit|all] [-restricted]
//	        [-duchains] [-nobypass] [-narrow N]
//	        [-timeout D] [-mem-budget N[KMG]] [-no-degrade]
//	        [-cpuprofile f] [-memprofile f] [-globals] [-stats] [-stats-json]
//	        file.c
//
// The analysis is one sequential pipeline. The sparse analyzers solve with
// one global worklist over the def-use graph, as do the restricted solves of
// -restricted.
//
// Exit codes:
//
//	0 — analysis completed, no alarms
//	1 — analysis completed, alarms reported
//	2 — usage error (bad flags or arguments)
//	3 — analysis error (frontend problem, invalid configuration, or an
//	    internal failure recovered into a structured error)
//	4 — resource budget breached: the deadline or memory budget stopped the
//	    analysis, or it completed only after degrading (see -no-degrade)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"sparrow"
	"sparrow/internal/check"
	"sparrow/internal/ir"
	"sparrow/internal/metrics"
)

// Exit codes of the sparrow command (see the package comment).
const (
	exitClean  = 0
	exitAlarms = 1
	exitUsage  = 2
	exitError  = 3
	exitBudget = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// parseBytes parses a byte count with an optional binary K/M/G suffix
// ("512M", "2G", "1048576"). Empty means 0 (no budget).
func parseBytes(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	shift := 0
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		shift, s = 10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		shift, s = 20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		shift, s = 30, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid byte count %q (want e.g. 512M, 2G)", s)
	}
	return n << shift, nil
}

// run is the testable entry point: it parses args, analyzes the file, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sparrow", flag.ContinueOnError)
	fs.SetOutput(stderr)
	domain := fs.String("domain", "interval", "abstract domain: interval or octagon")
	mode := fs.String("mode", "sparse", "fixpoint mode: vanilla, base, or sparse")
	checkers := fs.String("checkers", "", "comma-separated checker kinds: buf, null, div, uninit, or all (\"\" = the classic three)")
	restricted := fs.Bool("restricted", false, "also run each selected checker on its restricted def-use graph and print the restriction statistics (sparse interval only)")
	duchains := fs.Bool("duchains", false, "use conventional def-use chains (less precise; sparse interval only)")
	nobypass := fs.Bool("nobypass", false, "disable the chain-bypass optimization")
	narrow := fs.Int("narrow", 0, "descending (narrowing) sweeps after the ascending fixpoint (dense and sparse interval modes)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline per analysis attempt; on breach the engine degrades (see -no-degrade) or exits 4 (0 = none)")
	memBudget := fs.String("mem-budget", "", "soft heap budget with optional K/M/G suffix, e.g. 512M; on breach the engine degrades or exits 4 (\"\" = none)")
	noDegrade := fs.Bool("no-degrade", false, "fail immediately (exit 4) on a deadline/memory breach instead of retrying cheaper configurations")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	globals := fs.Bool("globals", false, "print the final interval of every global variable")
	stats := fs.Bool("stats", true, "print analysis statistics")
	statsJSON := fs.Bool("stats-json", false, "print the machine-readable metrics report (JSON) instead of text output")
	dumpDug := fs.String("dump-dug", "", "write the def-use graph in Graphviz dot syntax to this file (sparse modes)")
	dumpIR := fs.Bool("dump-ir", false, "print the lowered IR")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: sparrow [flags] file.c")
		fs.Usage()
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sparrow:", err)
		return exitError
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "sparrow:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "sparrow:", err)
			}
			f.Close()
		}()
	}

	budget, err := parseBytes(*memBudget)
	if err != nil {
		fmt.Fprintln(stderr, "sparrow:", err)
		return exitUsage
	}
	opt := sparrow.Options{
		NoBypass:     *nobypass,
		DefUseChains: *duchains,
		Narrow:       *narrow,
		Deadline:     *timeout,
		MemBudget:    budget,
		NoDegrade:    *noDegrade,
		Metrics:      metrics.New(),
	}
	if *checkers != "" {
		kinds, err := check.ParseKinds(*checkers)
		if err != nil {
			return fail(err)
		}
		opt.Checkers = kinds
	}
	switch *domain {
	case "interval":
		opt.Domain = sparrow.Interval
	case "octagon":
		opt.Domain = sparrow.Octagon
	default:
		return fail(fmt.Errorf("unknown domain %q", *domain))
	}
	switch *mode {
	case "vanilla":
		opt.Mode = sparrow.Vanilla
	case "base":
		opt.Mode = sparrow.Base
	case "sparse":
		opt.Mode = sparrow.Sparse
	default:
		return fail(fmt.Errorf("unknown mode %q", *mode))
	}

	res, err := sparrow.AnalyzeSource(path, string(src), opt)
	if err != nil {
		var be *sparrow.BudgetError
		if errors.As(err, &be) {
			fmt.Fprintln(stderr, "sparrow:", err)
			return exitBudget
		}
		return fail(err)
	}
	if len(res.Degraded) > 0 {
		fmt.Fprintf(stderr, "sparrow: analysis degraded under the resource budget: %s (results below are sound for the degraded configuration)\n",
			strings.Join(res.Degraded, ", "))
	}
	// The frontend accepts translation units without an entry point (it
	// synthesizes an empty __start), so the analysis "succeeds" on inputs
	// that define nothing to analyze. That is a frontend problem, not a
	// clean run — report it and exit non-zero.
	if res.Prog.ProcByName("main") == nil {
		return fail(fmt.Errorf("%s: no main function (nothing to analyze)", path))
	}
	if *dumpIR {
		fmt.Fprint(stdout, res.Prog.Dump())
	}
	if *dumpDug != "" {
		g := res.Graph()
		if g == nil {
			return fail(fmt.Errorf("-dump-dug requires -mode sparse"))
		}
		f, err := os.Create(*dumpDug)
		if err != nil {
			return fail(err)
		}
		if err := g.WriteDot(f, 5000); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote def-use graph to %s\n", *dumpDug)
	}
	alarms := res.Alarms() // before the report: populates the alarm counter
	var runs []*sparrow.CheckerRun
	if *restricted {
		for _, k := range opt.Kinds() {
			cr, err := res.AnalyzeChecker(k)
			if err != nil {
				return fail(err)
			}
			runs = append(runs, cr)
		}
	}
	// Final code: budget effects (degradation, truncation) dominate the
	// alarm signal — a caller that gets 4 knows to re-run with more budget.
	exit := exitClean
	if len(alarms) > 0 {
		exit = exitAlarms
	}
	if len(res.Degraded) > 0 || res.Stats.TimedOut {
		exit = exitBudget
	}
	if *statsJSON {
		rep := res.MetricsReport()
		rep.Program = path
		b, err := rep.MarshalIndent()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", b)
		if res.Stats.TimedOut {
			fmt.Fprintln(stderr, "sparrow: analysis timed out (partial results)")
		}
		return exit
	}
	if res.Stats.TimedOut {
		fmt.Fprintln(stdout, "analysis timed out (partial results below)")
	}
	if *stats {
		// res.Opts is the configuration that actually ran, which under a
		// breached budget is a degradation rung below the requested one.
		s := res.Stats
		fmt.Fprintf(stdout, "%s/%s: LOC=%d functions=%d statements=%d blocks=%d maxSCC=%d abslocs=%d\n",
			res.Opts.Domain, res.Opts.Mode, s.LOC, s.Functions, s.Statements, s.Blocks, s.MaxSCC, s.AbsLocs)
		fmt.Fprintf(stdout, "times: pre=%v dep=%v fix=%v total=%v steps=%d\n",
			s.PreTime, s.DepTime, s.FixTime, s.TotalTime, s.Steps)
		if res.Opts.Mode == sparrow.Sparse {
			fmt.Fprintf(stdout, "sparse: edges=%d phis=%d avg|D̂(c)|=%.2f avg|Û(c)|=%.2f\n",
				s.DepEdges, s.Phis, s.AvgDefs, s.AvgUses)
		}
		if opt.Domain == sparrow.Octagon {
			fmt.Fprintf(stdout, "packs: %d (avg non-singleton size %.1f)\n", s.PackCount, s.PackAvg)
		}
	}
	for _, cr := range runs {
		solve := cr.SolveTime.String()
		if cr.SharedWith != nil {
			solve = "shared(" + cr.SharedWith.ShortName() + ")"
		}
		fmt.Fprintf(stdout, "restricted[%s]: locs=%d triples=%d/%d (%.1f%%) solve=%s alarms=%d\n",
			cr.Kind.ShortName(), cr.Keep, cr.Triples, cr.FullTriples,
			100*float64(cr.Triples)/float64(max(cr.FullTriples, 1)), solve, len(cr.Alarms))
	}
	if *globals {
		fmt.Fprintln(stdout, "final global invariants:")
		locs := res.Prog.Locs
		for id := 0; id < locs.Len(); id++ {
			l := locs.Get(ir.LocID(id))
			if l.Kind != ir.LVar || l.Proc != ir.None {
				continue
			}
			if desc, ok := res.GlobalValueAtExit(l.Name); ok {
				fmt.Fprintf(stdout, "  %-20s %s\n", l.Name, desc)
			}
		}
	}
	if len(alarms) > 0 {
		fmt.Fprintf(stdout, "%d alarm(s):\n", len(alarms))
		for _, a := range alarms {
			fmt.Fprintf(stdout, "  %s\n", a)
		}
	} else if opt.Domain == sparrow.Interval {
		fmt.Fprintln(stdout, "no alarms")
	}
	return exit
}

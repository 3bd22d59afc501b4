package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sparrow/internal/cgen"
	"sparrow/internal/par"
)

// Report is the outcome of one generated program.
type Report struct {
	Seed       uint64
	Name       string
	Src        string
	Violations []Violation
	// Minimized is the shrunk repro and ShrinkLog the pass-by-pass
	// trajectory (both set only when shrinking ran).
	Minimized string
	ShrinkLog string
}

// Failed reports whether any oracle fired.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary is the outcome of a campaign.
type Summary struct {
	Programs int
	// Failures holds the reports with violations, in seed order.
	Failures []*Report
}

// GenSource generates the program for one seed (the seed→program map shared
// by RunOne, the go native fuzz target, and cmd/sparrow-fuzz).
func GenSource(seed uint64, stmts int) string {
	return cgen.Generate(cgen.Fuzz(seed, stmts))
}

// RunOne generates the program for seed and checks it against the oracle
// set. A generated program failing to parse or lower is itself a violation
// (the generator promises validity).
func RunOne(seed uint64, opt Options) *Report {
	opt = opt.withDefaults()
	rep := &Report{
		Seed: seed,
		Name: fmt.Sprintf("fuzz-seed%d", seed),
		Src:  GenSource(seed, opt.Stmts),
	}
	_, vs, err := CheckSource(rep.Name+".c", rep.Src, opt.Oracles, opt)
	if err != nil {
		rep.Violations = []Violation{{Oracle: "generate", Detail: err.Error()}}
		return rep
	}
	rep.Violations = vs
	return rep
}

// Run executes a campaign: opt.N programs from opt.Seed, fanned out over
// opt.Workers goroutines, shrinking and writing repro artifacts for any
// violation when configured. The seed→report mapping is deterministic;
// only completion order varies with the worker count.
func Run(opt Options) (*Summary, error) {
	opt = opt.withDefaults()
	reports := make([]*Report, opt.N)
	par.For(opt.N, opt.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reports[i] = RunOne(opt.Seed+uint64(i), opt)
		}
	})
	sum := &Summary{Programs: opt.N}
	for _, rep := range reports {
		if !rep.Failed() {
			continue
		}
		if opt.Shrink {
			shrinkReport(rep, opt)
		}
		if opt.OutDir != "" {
			if err := writeArtifacts(rep, opt); err != nil {
				return sum, err
			}
		}
		sum.Failures = append(sum.Failures, rep)
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, "seed %d: %d violation(s); first: %s\n",
				rep.Seed, len(rep.Violations), rep.Violations[0])
		}
	}
	if opt.Log != nil {
		fmt.Fprintf(opt.Log, "%d programs, %d failing\n", sum.Programs, len(sum.Failures))
	}
	return sum, nil
}

// shrinkReport minimizes rep.Src while its first violation's oracle keeps
// firing (standard delta-debugging discipline: fixing on one oracle
// prevents slippage onto a different failure). The anchor is the oracle
// name plus the violation's class — the leading token of its detail
// ("alarm", "D̂", "reached", "point", ...) — so a shrink cannot drift from,
// say, an alarm-subset violation onto an unrelated D̂-entry mismatch that
// happens to live in the same oracle.
func shrinkReport(rep *Report, opt Options) {
	oracle, ok := oracleByName(opt.Oracles, rep.Violations[0].Oracle)
	if !ok {
		// "generate"/"analyze" violations have no oracle to re-check;
		// shrink under program validity alone.
		oracle = Oracle{Name: rep.Violations[0].Oracle, Needs: 0,
			Check: func(*Exec) []Violation { return nil }}
	}
	class := violationClass(rep.Violations[0].Detail)
	pred := func(src string) bool {
		ex, err := Execute(rep.Name+".c", src, oracle.Needs, opt)
		if err != nil {
			return oracle.Name == "generate" // invalid source only "reproduces" generator bugs
		}
		if oracle.Name == "analyze" {
			return len(ex.AnalyzeViolations) > 0
		}
		for _, v := range oracle.Check(ex) {
			if v.Oracle == oracle.Name && violationClass(v.Detail) == class {
				return true
			}
		}
		return false
	}
	min, log := Shrink(rep.Src, pred)
	rep.Minimized, rep.ShrinkLog = min, log
}

// violationClass is the leading token of a violation detail — the stable
// discriminator between the failure classes one oracle can report.
func violationClass(detail string) string {
	if f := strings.Fields(detail); len(f) > 0 {
		return f[0]
	}
	return ""
}

func oracleByName(oracles []Oracle, name string) (Oracle, bool) {
	for _, o := range oracles {
		if o.Name == name {
			return o, true
		}
	}
	return Oracle{}, false
}

// writeArtifacts stores the (minimized) repro and an oracle transcript
// under opt.OutDir.
func writeArtifacts(rep *Report, opt Options) error {
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return err
	}
	src := rep.Minimized
	if src == "" {
		src = rep.Src
	}
	if err := os.WriteFile(filepath.Join(opt.OutDir, rep.Name+".c"), []byte(src), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.OutDir, rep.Name+".txt"), []byte(Transcript(rep, opt)), 0o644)
}

// Transcript renders the oracle transcript of a failing report: the
// violated invariants, the shrink trajectory, and the original program for
// reference (the minimized repro lives in the .c file next to it).
func Transcript(rep *Report, opt Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: differential oracle transcript\n", rep.Name)
	fmt.Fprintf(&b, "seed=%d stmts=%d analyzer configs: interval/octagon x vanilla/base/sparse, repeated sparse\n\n",
		rep.Seed, opt.Stmts)
	fmt.Fprintf(&b, "violations (%d):\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if rep.Minimized != "" {
		fmt.Fprintf(&b, "\nshrink: %d -> %d lines\n%s\n",
			len(strings.Split(rep.Src, "\n")), len(strings.Split(rep.Minimized, "\n")), rep.ShrinkLog)
	}
	fmt.Fprintf(&b, "\noriginal program:\n%s", rep.Src)
	return b.String()
}

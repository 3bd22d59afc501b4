// Package fuzz is the differential-testing subsystem: it generates
// randomized C programs (internal/cgen's fuzz mode), runs each through all
// six analyzer configurations (Interval/Octagon × Vanilla/Base/Sparse) plus
// the concrete interpreter and a repeated sparse run, and checks six oracles
// over the results:
//
//	soundness    — every concretely observed value lies inside the vanilla
//	               and sparse interval results, and every concretely visited
//	               point is abstractly reachable in every interval config
//	               (the analyses over-approximate execution);
//	precision    — on widening-free runs (where both engines compute their
//	               least fixpoints, schedule-independently): sparse alarms ⊆
//	               base alarms and base ⊑ sparse on every D̂ entry (Lemma 2's
//	               surface); widened fixpoints are genuinely incomparable;
//	agreement    — base alarms ⊆ vanilla alarms (access-based localization
//	               never loses precision), and the octagon analyzers complete;
//	determinism  — two sparse interval runs of one configuration in one
//	               process are bit-identical, including the step counter
//	               (Go map iteration order must not leak into results);
//	faults       — re-run the sparse solve under a seed-derived fault
//	               schedule (internal/faultinject: injected panics, stalls,
//	               allocation spikes, cancellation). A fired panic must
//	               surface as *core.AnalysisError, a fired cancellation as a
//	               *core.BudgetError unwrapping to context.Canceled; benign
//	               or unfired faults must leave the run bit-identical to the
//	               fault-free baseline; and (sequential campaigns) no
//	               goroutine may outlive the analysis.
//
// On a violation, a delta-debugging shrinker (shrink.go) minimizes the
// program while the violated oracle keeps firing, and the campaign driver
// writes the minimized repro plus an oracle transcript to testdata/fuzz/.
//
// Entry points: RunOne (one seed), Run (a campaign; used by
// cmd/sparrow-fuzz and the short-mode CI test), FuzzDifferential and
// FuzzParser (go native fuzzing).
package fuzz

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"sparrow/internal/check"
	"sparrow/internal/core"
	"sparrow/internal/dug"
	"sparrow/internal/faultinject"
	"sparrow/internal/interp"
	"sparrow/internal/ir"
	"sparrow/internal/leakcheck"
)

// need is a bitmask of the executions an oracle reads; the runner (and
// especially the shrinker, which re-executes candidates in a tight loop)
// builds only what the active oracles ask for.
type need uint

// Execution needs.
const (
	needIntervalVanilla need = 1 << iota
	needIntervalBase
	needIntervalSparse
	needOctagon
	needRepeated
	needRestricted
	needFaults
)

// Exec bundles the analysis runs of one program.
type Exec struct {
	Name string
	Src  string
	Seed uint64 // generation seed (0 for shrink candidates)

	// Interval and Octagon hold the per-mode results that were requested.
	Interval map[core.Mode]*core.Result
	Octagon  map[core.Mode]*core.Result
	// Repeated holds two sparse interval runs.
	Repeated [2]*core.Result
	// Restricted holds a sequential sparse interval run with every checker
	// kind enabled (uninit marks included) — the base of the per-checker
	// restriction oracle, which replays it kind by kind.
	Restricted *core.Result
	// Faults holds the fault oracle's runs: a fault-free baseline and the
	// same solve under a seed-derived fault schedule.
	Faults *FaultExec
	// AnalyzeViolations records configs that timed out (the implicit
	// "every analyzer completes" check).
	AnalyzeViolations []Violation
}

// FaultExec holds the fault oracle's two runs of the sparse interval solve:
// a fault-free Baseline and a run under a seed-derived fault schedule. The
// faulted run carries no deadline or heap budget, so only a fired panic or
// cancellation may produce an error; stalls and allocation spikes must be
// invisible.
type FaultExec struct {
	Plan     *faultinject.Plan
	Res      *core.Result // nil when Err != nil
	Err      error
	Baseline *core.Result

	// Goroutine-leak accounting for the faulted run; populated only in
	// sequential campaigns (concurrent sibling programs would alias counts).
	LeakChecked           bool
	LeakOK                bool
	LeakBefore, LeakAfter int
	LeakDump              string
}

// Violation is one oracle failure.
type Violation struct {
	Oracle string // oracle name: "soundness", "precision", ...
	Detail string
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// Oracle is one differential invariant over an Exec.
type Oracle struct {
	Name  string
	Needs need
	Check func(*Exec) []Violation
}

// Options configures a fuzzing campaign.
type Options struct {
	// Seed is the first generation seed; program i uses Seed+i.
	Seed uint64
	// N is the number of programs to generate (default 200).
	N int
	// Workers fans program runs out across goroutines (default 1); each
	// program's analyses are sequential.
	Workers int
	// Stmts scales generated program size (default 120).
	Stmts int
	// Shrink minimizes violating programs before reporting.
	Shrink bool
	// OutDir receives minimized repros and oracle transcripts ("" = do
	// not write files).
	OutDir string
	// Oracles overrides the oracle set (nil = StandardOracles()). Tests
	// use this to inject synthetic violations for the shrinker self-test.
	Oracles []Oracle
	// Log receives campaign progress (nil = silent).
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 200
	}
	if o.Stmts == 0 {
		o.Stmts = 120
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Oracles == nil {
		o.Oracles = StandardOracles()
	}
	return o
}

// StandardOracles returns the six differential oracles.
func StandardOracles() []Oracle {
	return []Oracle{
		{Name: "soundness", Needs: needIntervalVanilla | needIntervalBase | needIntervalSparse,
			Check: checkSoundness},
		{Name: "precision", Needs: needIntervalBase | needIntervalSparse, Check: checkPrecision},
		{Name: "agreement", Needs: needIntervalVanilla | needIntervalBase | needOctagon, Check: checkAgreement},
		{Name: "determinism", Needs: needRepeated, Check: checkDeterminism},
		{Name: "restriction", Needs: needRestricted, Check: checkRestriction},
		{Name: "faults", Needs: needFaults, Check: checkFaults},
	}
}

// OraclesByName filters the standard oracle set to the named ones
// (comma-separated; "all" or "" selects every oracle).
func OraclesByName(spec string) ([]Oracle, error) {
	all := StandardOracles()
	if spec == "" || spec == "all" {
		return all, nil
	}
	var out []Oracle
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, o := range all {
			if o.Name == name {
				out = append(out, o)
				found = true
				break
			}
		}
		if !found {
			var names []string
			for _, o := range all {
				names = append(names, o.Name)
			}
			return nil, fmt.Errorf("unknown oracle %q (want %s, or all)", name, strings.Join(names, ", "))
		}
	}
	return out, nil
}

func neededBy(oracles []Oracle) need {
	var n need
	for _, o := range oracles {
		n |= o.Needs
	}
	return n
}

// Execute parses and analyzes src under every configuration in needs. It
// errors only when the program itself is invalid (parse/lower failure) —
// the shrinker uses that to reject broken candidates. Each configuration
// re-parses the source: lowering is deterministic, so point and location
// IDs agree across runs, and no run can contaminate another through shared
// program state (the interpreter, for one, allocates heap locations).
func Execute(name, src string, needs need, opt Options) (*Exec, error) {
	ex := &Exec{
		Name:     name,
		Src:      src,
		Interval: map[core.Mode]*core.Result{},
		Octagon:  map[core.Mode]*core.Result{},
	}
	run := func(domain core.Domain, mode core.Mode) (*core.Result, error) {
		res, err := core.AnalyzeSource(name, src, core.Options{
			Domain: domain,
			Mode:   mode,
		})
		if err != nil {
			return nil, err
		}
		if res.Stats.TimedOut {
			ex.AnalyzeViolations = append(ex.AnalyzeViolations, Violation{
				Oracle: "analyze",
				Detail: fmt.Sprintf("%v/%v: timed out", domain, mode),
			})
		}
		return res, nil
	}
	modeNeeds := []struct {
		n    need
		mode core.Mode
	}{
		{needIntervalVanilla, core.Vanilla},
		{needIntervalBase, core.Base},
		{needIntervalSparse, core.Sparse},
	}
	for _, mn := range modeNeeds {
		if needs&mn.n == 0 {
			continue
		}
		res, err := run(core.Interval, mn.mode)
		if err != nil {
			return nil, err
		}
		ex.Interval[mn.mode] = res
	}
	if needs&needOctagon != 0 {
		for _, mode := range []core.Mode{core.Vanilla, core.Base, core.Sparse} {
			res, err := run(core.Octagon, mode)
			if err != nil {
				return nil, err
			}
			ex.Octagon[mode] = res
		}
	}
	if needs&needRepeated != 0 {
		for i := range ex.Repeated {
			res, err := run(core.Interval, core.Sparse)
			if err != nil {
				return nil, err
			}
			ex.Repeated[i] = res
		}
	}
	if needs&needRestricted != 0 {
		// The restriction base run enables every checker kind: the uninit
		// marks change the abstract semantics, so it cannot share the plain
		// sparse run. Sequential on purpose — restricted replays are
		// sequential, and matching widening schedules is part of the
		// exactness contract.
		res, err := core.AnalyzeSource(name, src, core.Options{
			Domain:   core.Interval,
			Mode:     core.Sparse,
			Checkers: check.AllKinds,
		})
		if err != nil {
			return nil, err
		}
		if res.Stats.TimedOut {
			ex.AnalyzeViolations = append(ex.AnalyzeViolations, Violation{
				Oracle: "analyze",
				Detail: "interval/sparse (all checkers): timed out",
			})
		}
		ex.Restricted = res
	}
	if needs&needFaults != 0 {
		fe, err := buildFaults(name, src, opt.Workers <= 1)
		if err != nil {
			return nil, err
		}
		ex.Faults = fe
	}
	return ex, nil
}

// faultSeed derives the fault-schedule seed from the source text, so the
// schedule is well-defined for shrink candidates too.
func faultSeed(src string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	h.Write([]byte("\x00faults"))
	return h.Sum64()
}

// buildFaults runs the fault oracle's pipeline: a fault-free baseline solve,
// then the same solve under a seeded fault schedule with cancellation bound
// to the run's context. The error reports an invalid program (baseline
// failure) — faulted-run errors are the oracle's subject and land in Err.
func buildFaults(name, src string, leakCheck bool) (*FaultExec, error) {
	opts := core.Options{Domain: core.Interval, Mode: core.Sparse}
	baseline, err := core.AnalyzeSource(name, src, opts)
	if err != nil {
		return nil, err
	}
	fe := &FaultExec{
		Plan:     faultinject.Seeded(faultSeed(src)),
		Baseline: baseline,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fe.Plan.BindCancel(cancel)
	defer fe.Plan.Release()
	faulted := opts
	faulted.Ctx = ctx
	faulted.FaultHook = fe.Plan.Hook()
	run := func() { fe.Res, fe.Err = core.AnalyzeSource(name, src, faulted) }
	if leakCheck {
		fe.LeakChecked = true
		fe.LeakOK, fe.LeakBefore, fe.LeakAfter, fe.LeakDump = leakcheck.Check(run)
	} else {
		run()
	}
	return fe, nil
}

// Check runs the oracle set over an already-built Exec.
func Check(ex *Exec, oracles []Oracle) []Violation {
	vs := append([]Violation{}, ex.AnalyzeViolations...)
	for _, o := range oracles {
		vs = append(vs, o.Check(ex)...)
	}
	return vs
}

// CheckSource executes and checks one source program under the given
// oracle set; the error reports an invalid program.
func CheckSource(name, src string, oracles []Oracle, opt Options) (*Exec, []Violation, error) {
	ex, err := Execute(name, src, neededBy(oracles), opt)
	if err != nil {
		return nil, nil, err
	}
	return ex, Check(ex, oracles), nil
}

// ---------- the four oracles ----------

// soundnessInputs is the fixed input vector fed to input() during concrete
// execution (cycled). A handful of mixed-sign values reaches most guarded
// regions of the generated programs.
var soundnessInputs = []int64{3, -7, 12, 0, 45, -2, 8, 63, -31, 1}

const (
	soundnessMaxSteps      = 20000
	soundnessMaxViolations = 3
)

// checkSoundness executes the program concretely and checks the analyses
// over-approximate the execution: every observed integer value lies inside
// the vanilla and sparse interval results, and every concretely visited
// point is marked reachable by every interval config. The reachability half
// holds unconditionally — widening and the engines' structural artifacts
// only ever *add* abstract reachability — and is the direct guard against
// phantom precision in the sparse engine (a dropped def-use edge starves a
// node, which then claims bottom for code execution actually visits). Traps
// (guarded out-of-bounds, step exhaustion, UB overflow) are fine — partial
// executions still observe plenty — but the prefix executed before the trap
// must stay inside the abstraction.
func checkSoundness(ex *Exec) []Violation {
	modes := []struct {
		name string
		res  *core.Result
	}{
		{"vanilla", ex.Interval[core.Vanilla]},
		{"base", ex.Interval[core.Base]},
		{"sparse", ex.Interval[core.Sparse]},
	}
	var prog *ir.Program
	for _, m := range modes {
		if m.res != nil {
			prog = m.res.Prog
			break
		}
	}
	if prog == nil {
		return nil
	}
	var vs []Violation
	seenPts := map[ir.PointID]bool{}
	_, err := interp.Run(prog, interp.Options{
		MaxSteps:       soundnessMaxSteps,
		Inputs:         soundnessInputs,
		TrapOverflow:   true,
		TrapMissingRet: true,
		Observe: func(pt ir.PointID, get func(ir.LocID) (interp.Value, bool)) {
			if len(vs) >= soundnessMaxViolations {
				return
			}
			if !seenPts[pt] {
				seenPts[pt] = true
				for _, m := range modes {
					if m.res != nil && !m.res.Reached(pt) {
						vs = append(vs, Violation{
							Oracle: "soundness",
							Detail: fmt.Sprintf("reached point %d concretely but %s marks it unreachable",
								pt, m.name),
						})
					}
				}
			}
			for id := 0; id < prog.Locs.Len(); id++ {
				l := ir.LocID(id)
				cv, bound := get(l)
				if !bound || cv.Kind != interp.Int {
					continue
				}
				for _, m := range modes {
					// Base is skipped for values: its localized memories
					// drop caller-local bindings inside callees by design,
					// so absent entries are scope artifacts, not claims.
					if m.res == nil || m.name == "base" {
						continue
					}
					// Observe fires before the point executes, but the
					// sparse surface holds post-transfer values for the
					// point's own defs — only its use-side entries (the
					// accumulated pre-state) are comparable here.
					if m.name == "sparse" && definesLoc(m.res.Graph(), pt, l) {
						continue
					}
					av, tracked := m.res.ValueAt(pt, l)
					iv := av.Itv()
					if !tracked || iv.IsBot() {
						continue // summary cells are lazily materialized concretely
					}
					if iv.Lo().IsFinite() && cv.N < iv.Lo().Int() ||
						iv.Hi().IsFinite() && cv.N > iv.Hi().Int() {
						vs = append(vs, Violation{
							Oracle: "soundness",
							Detail: fmt.Sprintf("point %d loc %s: concrete %d outside %s %s",
								pt, prog.Locs.String(l), cv.N, m.name, iv),
						})
					}
				}
			}
		},
	})
	var trap *interp.Trap
	if err != nil && !errors.As(err, &trap) {
		vs = append(vs, Violation{Oracle: "soundness", Detail: "interpreter: " + err.Error()})
	}
	return vs
}

// definesLoc reports whether l is in the def-use graph's D̂ set at pt.
func definesLoc(g *dug.Graph, pt ir.PointID, l ir.LocID) bool {
	for _, dl := range g.Defs[dug.NodeID(pt)] {
		if dl == l {
			return true
		}
	}
	return false
}

// alarmKeys keys a result's alarms by position and kind (the stable
// identity across analyzers; messages embed mode-specific intervals).
func alarmKeys(res *core.Result) map[string]bool {
	set := map[string]bool{}
	for _, a := range res.Alarms() {
		set[a.Pos.String()+"/"+a.Kind.String()] = true
	}
	return set
}

func subsetViolations(oracle, rel string, sub, super map[string]bool, max int) []Violation {
	var vs []Violation
	for k := range sub {
		if !super[k] {
			vs = append(vs, Violation{Oracle: oracle, Detail: fmt.Sprintf("alarm %s: %s", k, rel)})
			if len(vs) >= max {
				break
			}
		}
	}
	return vs
}

// checkPrecision is the Lemma 2 oracle, on its actual surface: when neither
// run applied an effective widening (both computed the least fixpoints of
// their equation systems, schedule-independently), the sparse analyzer must
// not lose precision against its underlying Base analysis — no sparse-only
// alarms, and every commonly-reached D̂ entry must satisfy base ⊑ sparse:
// the sparse system over-approximates the dense one (assume nodes can fire
// before all used values arrive, so sparse may fail to kill a branch base
// kills), but a sparse value strictly below the dense least fixpoint would
// be phantom precision — a def-use edge was dropped.
//
// Once widening fires the comparison is skipped entirely: the fixpoints
// become schedule-dependent and genuinely incomparable — dense widening
// hits whole memories at loop heads while sparse widening is per-location
// at that location's own node — and that extends to the alarm sets (seed
// 5584: sparse widens a guard operand to [-oo,7] where dense's schedule
// keeps the lower bound, so sparse alone reports the overrun). Widened runs
// are still pinned by the soundness oracle — values and reachability
// against concrete execution — which holds unconditionally.
func checkPrecision(ex *Exec) []Violation {
	base, sp := ex.Interval[core.Base], ex.Interval[core.Sparse]
	if sp.Widened() || base.Widened() {
		return nil
	}
	vs := subsetViolations("precision", "sparse-only (precision loss vs base)",
		alarmKeys(sp), alarmKeys(base), soundnessMaxViolations)
	diffs, err := core.DiffSparseVsBase(sp, base, false, 5)
	if err != nil {
		return append(vs, Violation{Oracle: "precision", Detail: err.Error()})
	}
	for _, d := range diffs {
		vs = append(vs, Violation{Oracle: "precision", Detail: "D̂ entry: " + d})
	}
	return vs
}

// checkAgreement checks the dense pair: access-based localization must not
// *add* alarms over vanilla (it is strictly more precise — callee memories
// only shrink), and the octagon analyzers must all have completed (their
// results carry no alarms to compare; the run itself is the check).
func checkAgreement(ex *Exec) []Violation {
	vanilla, base := ex.Interval[core.Vanilla], ex.Interval[core.Base]
	vs := subsetViolations("agreement", "base-only (localization added an alarm)",
		alarmKeys(base), alarmKeys(vanilla), soundnessMaxViolations)
	for _, mode := range []core.Mode{core.Vanilla, core.Base, core.Sparse} {
		if ex.Octagon[mode] == nil {
			vs = append(vs, Violation{Oracle: "agreement",
				Detail: fmt.Sprintf("octagon/%v: missing result", mode)})
		}
	}
	return vs
}

// checkDeterminism compares the two sparse runs: bit-identical fixpoints,
// reachability and steps, plus identical alarm sets rendered to strings.
func checkDeterminism(ex *Exec) []Violation {
	first, again := ex.Repeated[0], ex.Repeated[1]
	diffs, err := core.DiffSparseRuns(first, again, 5)
	if err != nil {
		return []Violation{{Oracle: "determinism", Detail: err.Error()}}
	}
	var vs []Violation
	for _, d := range diffs {
		vs = append(vs, Violation{Oracle: "determinism", Detail: "two runs: " + d})
	}
	if a, b := alarmStrings(first), alarmStrings(again); a != b {
		vs = append(vs, Violation{Oracle: "determinism",
			Detail: fmt.Sprintf("two runs: alarms differ:\n  %s\n  %s", a, b)})
	}
	return vs
}

// checkRestriction is the per-checker sparsification oracle: for every
// checker kind, replaying the all-checkers sparse run restricted to what
// that kind observes (closure → filtered DUG → sequential solve) must
// reproduce the full run's alarms of the kind bit-identically, on a graph
// with no more dependency triples than the full one.
func checkRestriction(ex *Exec) []Violation {
	res := ex.Restricted
	if res == nil {
		return nil
	}
	full := map[check.Kind][]string{}
	for _, a := range res.Alarms() {
		full[a.Kind] = append(full[a.Kind], a.String())
	}
	var vs []Violation
	for _, k := range check.AllKinds {
		run, err := res.AnalyzeChecker(k)
		if err != nil {
			vs = append(vs, Violation{Oracle: "restriction", Detail: k.String() + ": " + err.Error()})
			continue
		}
		var got []string
		for _, a := range run.Alarms {
			got = append(got, a.String())
		}
		if want := full[k]; !equalStrings(got, want) {
			vs = append(vs, Violation{Oracle: "restriction",
				Detail: fmt.Sprintf("%v: restricted alarms differ\n  restricted: %v\n  full:       %v", k, got, want)})
		}
		if run.Triples > run.FullTriples {
			vs = append(vs, Violation{Oracle: "restriction",
				Detail: fmt.Sprintf("%v: restricted triples %d exceed full %d", k, run.Triples, run.FullTriples)})
		}
		if len(vs) >= soundnessMaxViolations {
			break
		}
	}
	return vs
}

// checkFaults verifies the fault-isolation contract: every outcome of the
// faulted run must be explained by the faults that actually fired. A fired
// panic must surface as a structured *core.AnalysisError, a fired
// cancellation as a *core.BudgetError unwrapping to context.Canceled, and a
// run where neither fired must be bit-identical to the fault-free baseline —
// stalls and allocation spikes carry no budget here, so they may never leak
// into results. Leaked goroutines are a violation regardless of outcome.
func checkFaults(ex *Exec) []Violation {
	fe := ex.Faults
	if fe == nil {
		return nil
	}
	var vs []Violation
	report := func(format string, args ...any) {
		vs = append(vs, Violation{Oracle: "faults", Detail: fmt.Sprintf(format, args...)})
	}
	sched := fmt.Sprintf("schedule %v, fired %v", fe.Plan.Faults(), fe.Plan.Fired())
	if fe.LeakChecked && !fe.LeakOK {
		report("goroutines leaked (%d before, %d after) under %s\n%s",
			fe.LeakBefore, fe.LeakAfter, sched, fe.LeakDump)
	}
	panicFired := fe.Plan.FiredKind(faultinject.Panic)
	cancelFired := fe.Plan.FiredKind(faultinject.Cancel)
	switch err := fe.Err.(type) {
	case nil:
		if panicFired {
			report("injected panic was swallowed: run returned a result under %s", sched)
		}
		if cancelFired {
			report("cancellation was ignored: run returned a result under %s", sched)
		}
		if panicFired || cancelFired {
			break
		}
		if len(fe.Res.Degraded) != 0 {
			report("run degraded %v with no budget configured under %s", fe.Res.Degraded, sched)
		}
		diffs, derr := core.DiffSparseRuns(fe.Baseline, fe.Res, soundnessMaxViolations)
		if derr != nil {
			report("diff vs baseline: %v", derr)
			break
		}
		for _, d := range diffs {
			report("benign faults perturbed the fixpoint under %s: %s", sched, d)
		}
		if base, faulted := alarmStrings(fe.Baseline), alarmStrings(fe.Res); base != faulted {
			report("benign faults changed the alarms under %s:\n  baseline: %q\n  faulted:  %q",
				sched, base, faulted)
		}
	case *core.AnalysisError:
		if !panicFired {
			report("*AnalysisError with no injected panic under %s: %v", sched, err)
		}
	case *core.BudgetError:
		if !cancelFired {
			report("*BudgetError with no injected cancellation under %s: %v", sched, err)
		} else if !errors.Is(err, context.Canceled) {
			report("canceled run's error does not unwrap to context.Canceled under %s: %v", sched, err)
		}
	default:
		report("unstructured error under %s: %v", sched, fe.Err)
	}
	return vs
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func alarmStrings(res *core.Result) string {
	var b strings.Builder
	for _, a := range res.Alarms() {
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Package core wires the frontend, pre-analysis, def-use-graph construction
// and the fixpoint solvers into the analyzers the paper evaluates:
//
//	Interval_vanilla  dense, whole-state propagation
//	Interval_base     dense + access-based localization
//	Interval_sparse   the sparse framework (the paper's contribution)
//	Octagon_vanilla / Octagon_base / Octagon_sparse
//
// The root package sparrow re-exports this API.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"sparrow/internal/check"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/lattice/itv"
	"sparrow/internal/lattice/val"
	"sparrow/internal/mem"
	"sparrow/internal/metrics"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/solver/dense"
	"sparrow/internal/solver/octsparse"
	"sparrow/internal/solver/sparse"
)

// Domain selects the abstract domain.
type Domain uint8

// Domains.
const (
	Interval Domain = iota
	Octagon
)

func (d Domain) String() string {
	if d == Octagon {
		return "octagon"
	}
	return "interval"
}

// Mode selects the fixpoint strategy.
type Mode uint8

// Modes.
const (
	// Vanilla propagates whole abstract states along control flow.
	Vanilla Mode = iota
	// Base adds access-based localization at procedure boundaries.
	Base
	// Sparse propagates along data dependencies (the paper's framework).
	Sparse
)

func (m Mode) String() string {
	switch m {
	case Vanilla:
		return "vanilla"
	case Base:
		return "base"
	default:
		return "sparse"
	}
}

// Options configures an analysis.
type Options struct {
	Domain Domain
	Mode   Mode
	// NoBypass disables the interprocedural chain-bypass optimization of
	// the sparse analyzers (Section 5); on by default.
	NoBypass bool
	// DefUseChains propagates along conventional def-use chains instead of
	// the paper's data dependencies (sparse interval only; strictly less
	// precise — Example 5).
	DefUseChains bool
	// Narrow runs descending (narrowing) sweeps after the ascending phase
	// (dense and sparse interval modes; octagon sparse has no descending
	// phase).
	Narrow int
	// MaxSteps bounds the number of transfer applications (0 = none). A cut
	// fixpoint is partial: Stats.TimedOut is set.
	MaxSteps int
	// PackCap bounds octagon pack sizes (0 = the paper's 10).
	PackCap int
	// Deprecated: ignored; the sparse analyzers have one schedule.
	Workers int
	// Metrics, when non-nil, is threaded through the whole pipeline —
	// frontend, pre-analysis, def-use-graph construction, the fixpoint
	// solvers, and the checkers — collecting per-phase wall times
	// and the deterministic work counters of internal/metrics. Snapshot the
	// run with Result.MetricsReport (or Collector.Report directly).
	Metrics *metrics.Collector
	// Checkers selects the alarm kinds Result.Alarms reports (nil = the
	// classic three: buffer-overrun, null-dereference, division-by-zero).
	// Including check.UninitRead changes the analyzed semantics — procedure
	// entries seed possibly-uninitialized markers for their locals — and is
	// interval-only.
	Checkers []check.Kind
	// Ctx cancels the analysis cooperatively: solver worklists, the
	// pre-analysis, and graph construction poll it at amortized checkpoints
	// and the run returns a *BudgetError wrapping context.Canceled. nil
	// means no cancellation.
	Ctx context.Context
	// Deadline bounds each analysis attempt's wall-clock time. On breach
	// the engine walks the degradation ladder — octagon→interval, then skip
	// narrowing, then a per-checker restricted solve — granting each rung a
	// fresh window, and only returns a *BudgetError once every rung has
	// breached; completed rungs are stamped in Result.Degraded. Unlike
	// MaxSteps (which truncates the fixpoint and returns a partial result),
	// a Deadline never yields unsound partial memories.
	Deadline time.Duration
	// MemBudget is a soft cap, in bytes, on sampled heap growth above the
	// baseline at analysis start (internal/metrics heap sampler; 5ms
	// granularity). Breaches degrade exactly like Deadline breaches.
	MemBudget uint64
	// NoDegrade disables the degradation ladder: the first deadline or heap
	// breach returns a *BudgetError immediately.
	NoDegrade bool
	// FaultHook is the fault-injection checkpoint hook (internal/faultinject;
	// tests only). Installing it activates the budget layer even when no
	// limit is set.
	FaultHook rt.Hook

	// restricted marks a degradation-ladder attempt that solves only the
	// per-checker restricted graph (set by degradeStep, never by callers).
	restricted bool
}

// Kinds returns the checker kinds the run reports: Options.Checkers, or
// check.DefaultKinds when unset.
func (o Options) Kinds() []check.Kind { return o.kinds() }

func (o Options) kinds() []check.Kind {
	if o.Checkers == nil {
		return check.DefaultKinds
	}
	return o.Checkers
}

func hasKind(kinds []check.Kind, k check.Kind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}

// Stats summarizes an analysis run (the Table 1–3 columns).
type Stats struct {
	LOC        int
	Functions  int
	Statements int
	Blocks     int
	MaxSCC     int
	AbsLocs    int

	PreTime   time.Duration // pre-analysis (included in DepTime for sparse)
	DepTime   time.Duration // pre-analysis + dependency generation
	FixTime   time.Duration // fixpoint computation
	TotalTime time.Duration

	Steps     int
	TimedOut  bool
	DepEdges  int // dependency triples (sparse)
	Phis      int
	AvgDefs   float64 // avg |D̂(c)| per statement (sparse)
	AvgUses   float64
	PackCount int     // octagon only
	PackAvg   float64 // octagon only: avg non-singleton pack size
}

// Result is a completed analysis. AnalyzeChecker is not safe for
// concurrent calls on one Result: it fills unguarded memos (control seeds,
// closure index, the kept restricted solve).
type Result struct {
	Prog  *ir.Program
	Opts  Options
	Stats Stats

	// Degraded lists the degradation-ladder rungs taken before this result
	// was produced, in order (e.g. ["octagon-to-interval"]). Empty for a
	// full-fidelity run. A degraded result is still sound — each rung is a
	// coarser but correct analysis — and Opts reflects the configuration
	// that actually ran.
	Degraded []string

	bud   *rt.Budget // active budget (nil on the unbudgeted path)
	phase string     // pipeline stage in flight, for panic attribution
	pre   *prean.Result
	isem  *sem.Sem
	graph *dug.Graph // sparse only
	col   *metrics.Collector
	// marks is the per-procedure entry mark function when the uninit
	// checker is enabled (nil otherwise); ctrlSeeds and closure memoize the
	// kind-independent inputs of the per-checker closures (branch-condition
	// seeds, D̂/Û closure index), and lastSolve keeps the most recent
	// restricted solve for reuse by the next kind (restrict.go).
	marks     func(ir.ProcID) []ir.LocID
	ctrlSeeds []ir.LocID
	closure   *prean.ClosureIndex
	lastSolve *restrictedSolve

	dres  *dense.Result[mem.Mem]
	sres  *sparse.Result
	osem  *octsem.Sem
	packs *pack.Set
	odres *dense.Result[octsem.OMem]
	osres *octsparse.Result
}

// AnalyzeSource parses, lowers and analyzes a C-like translation unit.
func AnalyzeSource(name, src string, opt Options) (*Result, error) {
	stop := opt.Metrics.Phase(metrics.PhaseParse)
	f, err := parser.Parse(name, src)
	stop()
	if err != nil {
		return nil, err
	}
	stop = opt.Metrics.Phase(metrics.PhaseLower)
	prog, err := lower.File(f)
	stop()
	if err != nil {
		return nil, err
	}
	prog.SourceLOC = countLines(src)
	return AnalyzeProgram(prog, opt)
}

func countLines(src string) int {
	n := 1
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			n++
		}
	}
	return n
}

// validateOptions rejects invalid Options combinations up front with typed
// *ConfigError values — the engine never silently falls back from an
// unsupported configuration.
func validateOptions(opt Options) error {
	if hasKind(opt.kinds(), check.UninitRead) {
		if opt.Domain != Interval {
			return &ConfigError{Opt: "Checkers+Domain", Reason: "the uninitialized-read checker is interval-only"}
		}
		if opt.DefUseChains {
			return &ConfigError{Opt: "Checkers+DefUseChains", Reason: "the uninitialized-read checker needs the data-dependency graph (def-use-chain mode unsupported)"}
		}
	}
	if opt.Domain == Octagon && opt.DefUseChains {
		return &ConfigError{Opt: "Domain+DefUseChains", Reason: "def-use-chain mode is interval-only"}
	}
	return nil
}

// degradeStep picks the next degradation-ladder rung for a breached
// configuration: a strictly cheaper analysis that is still sound.
func degradeStep(opt Options) (Options, string, bool) {
	switch {
	case opt.Domain == Octagon:
		opt.Domain = Interval
		return opt, "octagon-to-interval", true
	case opt.Narrow > 0:
		opt.Narrow = 0
		return opt, "skip-narrowing", true
	case opt.Mode == Sparse && !opt.DefUseChains && !opt.restricted:
		opt.restricted = true
		return opt, "restricted-checkers", true
	}
	return opt, "", false
}

// AnalyzeProgram analyzes an already-lowered program.
//
// With a budget configured (Ctx, Deadline, MemBudget, or FaultHook), the
// analysis is attempt-structured: a breach discards the attempt, degrades
// the configuration one ladder rung (unless NoDegrade or a cancellation),
// and retries with a fresh budget window. Panics anywhere inside an attempt
// surface as *AnalysisError, never as a crash.
func AnalyzeProgram(prog *ir.Program, opt Options) (*Result, error) {
	if err := validateOptions(opt); err != nil {
		return nil, err
	}
	bud := rt.New(rt.Config{
		Ctx:        opt.Ctx,
		Deadline:   opt.Deadline,
		HeapBudget: opt.MemBudget,
		Hook:       opt.FaultHook,
		Metrics:    opt.Metrics,
	})
	if bud == nil {
		return analyzeAttempt(prog, opt, nil)
	}
	defer bud.Close()
	var degraded []string
	cur := opt
	for {
		bud.Reset()
		res, err := analyzeAttempt(prog, cur, bud)
		reason := bud.Reason()
		if err != nil {
			be, isBudget := err.(*BudgetError)
			if !isBudget {
				return nil, err // *AnalysisError or a mode error: no ladder
			}
			reason = be.Reason
		} else if reason == rt.OK {
			res.Degraded = degraded
			return res, nil
		}
		if reason == rt.ReasonCanceled || cur.NoDegrade {
			return nil, &BudgetError{Reason: reason, Degraded: degraded}
		}
		next, step, ok := degradeStep(cur)
		if !ok {
			return nil, &BudgetError{Reason: reason, Degraded: degraded}
		}
		degraded = append(degraded, step)
		bud.DegradeStep()
		cur = next
	}
}

// analyzeAttempt runs one full pipeline pass under bud (nil = unbudgeted,
// today's exact code path). It is the panic-isolation boundary: any panic
// below here is recovered into *AnalysisError, and budget aborts from
// phases that cannot return partial results (rt.Abort) become *BudgetError.
func analyzeAttempt(prog *ir.Program, opt Options, bud *rt.Budget) (res *Result, err error) {
	r := &Result{Prog: prog, Opts: opt, col: opt.Metrics, bud: bud, phase: "setup"}
	defer func() {
		if p := recover(); p != nil {
			res = nil
			if ab, ok := p.(*rt.Abort); ok {
				err = &BudgetError{Reason: ab.Reason, Phase: ab.Phase.String()}
				return
			}
			err = &AnalysisError{Phase: r.phase, Cause: p, Stack: string(debug.Stack())}
		}
	}()
	t0 := time.Now()

	r.phase = "prean"
	stop := opt.Metrics.Phase(metrics.PhasePrean)
	pre := prean.RunBudget(prog, bud)
	stop()
	r.pre = pre
	if hasKind(opt.kinds(), check.UninitRead) {
		r.marks = entryMarksFor(prog, pre)
	}
	// Every interval solve of the run takes this one semantics. Its entry
	// marks must be the ones each def-use graph is built with
	// (dug.Options.EntryMarks), or entry definitions and dependency edges
	// disagree.
	r.isem = pre.Sem(prog)
	r.isem.EntryMarks = r.marks
	r.Stats.PreTime = time.Since(t0)
	opt.Metrics.Set(metrics.CtrPreanPasses, int64(pre.Passes))
	opt.Metrics.Set(metrics.CtrIRProcs, int64(len(prog.Procs)))
	opt.Metrics.Set(metrics.CtrIRPoints, int64(len(prog.Points)))
	opt.Metrics.Set(metrics.CtrIRStatements, int64(prog.NumStatements()))
	opt.Metrics.Set(metrics.CtrIRLocs, int64(prog.Locs.Len()))

	switch opt.Domain {
	case Interval:
		if err := r.runInterval(opt); err != nil {
			return nil, err
		}
	case Octagon:
		if err := r.runOctagon(opt); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown domain %d", opt.Domain)
	}
	r.phase = "finish"

	r.Stats.TotalTime = time.Since(t0)
	r.Stats.LOC = prog.SourceLOC
	r.Stats.Functions = len(prog.Procs) - 1 // __start is synthetic
	r.Stats.Statements = prog.NumStatements()
	r.Stats.Blocks = prog.NumBlocks()
	r.Stats.MaxSCC = pre.CG.MaxSCC()
	r.Stats.AbsLocs = prog.Locs.Len()
	r.recordResultShape(opt.Metrics)
	return r, nil
}

// recordResultShape flushes the result-side gauges: reachable points and the
// abstract-memory footprint (peak and total per-point entry counts). All are
// deterministic.
func (r *Result) recordResultShape(col *metrics.Collector) {
	if col == nil {
		return
	}
	reached := int64(0)
	for _, ok := range r.reachedSlice() {
		if ok {
			reached++
		}
	}
	col.Set(metrics.CtrReachedPoints, reached)
	var peak, total int64
	bump := func(n int) {
		total += int64(n)
		if int64(n) > peak {
			peak = int64(n)
		}
	}
	switch {
	case r.dres != nil:
		for _, m := range r.dres.In {
			bump(m.Len())
		}
	case r.sres != nil:
		for i := range r.sres.Acc {
			bump(r.sres.Acc[i].Len())
			bump(r.sres.Out[i].Len())
		}
	case r.odres != nil:
		for _, m := range r.odres.In {
			bump(m.Len())
		}
	case r.osres != nil:
		for i := range r.osres.Acc {
			bump(r.osres.Acc[i].Len())
			bump(r.osres.Out[i].Len())
		}
	}
	col.Set(metrics.CtrMemPeakEntries, peak)
	col.Set(metrics.CtrMemTotalEntries, total)
}

// MetricsReport snapshots the run's collector (nil when the analysis ran
// without Options.Metrics) and stamps the analyzer configuration.
func (r *Result) MetricsReport() *metrics.Report {
	if r.col == nil {
		return nil
	}
	rep := r.col.Report()
	rep.Domain = r.Opts.Domain.String()
	rep.Mode = r.Opts.Mode.String()
	return rep
}

func (r *Result) runInterval(opt Options) error {
	prog, pre := r.Prog, r.pre
	switch opt.Mode {
	case Vanilla, Base:
		r.phase = "fixpoint"
		t := time.Now()
		stop := opt.Metrics.Phase(metrics.PhaseFix)
		r.dres = dense.Analyze(prog, pre, r.isem, mem.Bot, pre.Accessed, dense.IntervalStride, dense.Options{
			Localize: opt.Mode == Base,
			MaxSteps: opt.MaxSteps,
			Narrow:   opt.Narrow,
			Metrics:  opt.Metrics,
			Budget:   r.bud,
		})
		stop()
		r.Stats.FixTime = time.Since(t)
		r.Stats.DepTime = r.Stats.PreTime
		r.Stats.Steps = r.dres.Steps
		r.Stats.TimedOut = r.dres.TimedOut
	case Sparse:
		r.phase = "dug_build"
		t := time.Now()
		stop := opt.Metrics.Phase(metrics.PhaseDUG)
		dopt := dug.Options{Bypass: !opt.NoBypass, Metrics: opt.Metrics, EntryMarks: r.marks, Budget: r.bud}
		if opt.DefUseChains {
			r.graph = dug.BuildDefUseChains(prog, pre, dopt)
		} else {
			r.graph = dug.Build(prog, pre, dopt)
		}
		stop()
		r.Stats.DepTime = r.Stats.PreTime + time.Since(t)
		t = time.Now()
		r.phase = "fixpoint"
		sopt := sparse.Options{
			MaxSteps: opt.MaxSteps,
			Narrow:   opt.Narrow,
			Metrics:  opt.Metrics,
			Budget:   r.bud,
		}
		if opt.restricted {
			// Degradation-ladder rung: solve only the per-checker restricted
			// graph (the union of the selected checkers' observed closures).
			// Alarms for the selected kinds are exact by the restriction
			// contract; memories outside the kept universe are not tracked.
			r.solveRestricted(opt, sopt)
		} else {
			stop = opt.Metrics.Phase(metrics.PhaseFix)
			r.sres = sparse.Analyze(prog, pre, r.isem, r.graph, sopt)
			stop()
		}
		r.Stats.FixTime = time.Since(t)
		r.Stats.Steps = r.sres.Steps
		r.Stats.TimedOut = r.sres.TimedOut
		r.Stats.DepEdges = r.graph.EdgeCount
		r.Stats.Phis = len(r.graph.Phis)
		r.Stats.AvgDefs, r.Stats.AvgUses = r.graph.AvgDefUse()
	default:
		return fmt.Errorf("core: unknown mode %d", opt.Mode)
	}
	return nil
}

func (r *Result) runOctagon(opt Options) error {
	prog, pre := r.Prog, r.pre
	if opt.DefUseChains {
		return fmt.Errorf("core: def-use-chain mode is interval-only")
	}
	r.phase = "pack"
	r.packs = pack.Build(prog, opt.PackCap)
	osem, src := octsem.Source(prog, pre, r.packs)
	r.osem = osem
	r.Stats.PackCount = r.packs.NumPacks()
	r.Stats.PackAvg = r.packs.AvgSize()
	opt.Metrics.Set(metrics.CtrPacks, int64(r.packs.NumPacks()))
	switch opt.Mode {
	case Vanilla, Base:
		r.phase = "fixpoint"
		t := time.Now()
		stop := opt.Metrics.Phase(metrics.PhaseFix)
		// The initial memory is arbitrary: every pack starts at Top.
		accessed := func(p ir.ProcID) []pack.ID { return octsem.Accessed(src, p) }
		r.odres = dense.Analyze(prog, pre, osem, osem.TopState(), accessed, dense.OctagonStride, dense.Options{
			Localize: opt.Mode == Base,
			MaxSteps: opt.MaxSteps,
			Narrow:   opt.Narrow,
			Metrics:  opt.Metrics,
			Budget:   r.bud,
		})
		stop()
		r.Stats.FixTime = time.Since(t)
		r.Stats.DepTime = r.Stats.PreTime
		r.Stats.Steps = r.odres.Steps
		r.Stats.TimedOut = r.odres.TimedOut
	case Sparse:
		r.phase = "dug_build"
		t := time.Now()
		stop := opt.Metrics.Phase(metrics.PhaseDUG)
		r.graph = dug.BuildFrom(src, dug.Options{Bypass: !opt.NoBypass, Metrics: opt.Metrics, Budget: r.bud})
		stop()
		r.Stats.DepTime = r.Stats.PreTime + time.Since(t)
		t = time.Now()
		r.phase = "fixpoint"
		oopt := octsparse.Options{
			MaxSteps: opt.MaxSteps,
			Metrics:  opt.Metrics,
			Budget:   r.bud,
		}
		stop = opt.Metrics.Phase(metrics.PhaseFix)
		r.osres = octsparse.Analyze(prog, pre, osem, r.graph, oopt)
		stop()
		r.Stats.FixTime = time.Since(t)
		r.Stats.Steps = r.osres.Steps
		r.Stats.TimedOut = r.osres.TimedOut
		r.Stats.DepEdges = r.graph.EdgeCount
		r.Stats.Phis = len(r.graph.Phis)
		r.Stats.AvgDefs, r.Stats.AvgUses = r.graph.AvgDefUse()
	default:
		return fmt.Errorf("core: unknown mode %d", opt.Mode)
	}
	return nil
}

// Graph exposes the def-use graph of a sparse run (nil otherwise).
func (r *Result) Graph() *dug.Graph { return r.graph }

// Pre exposes the pre-analysis result.
func (r *Result) Pre() *prean.Result { return r.pre }

// Packs exposes the octagon packing (nil for interval runs).
func (r *Result) Packs() *pack.Set { return r.packs }

// Reached reports control reachability of a point.
func (r *Result) Reached(pt ir.PointID) bool {
	switch {
	case r.dres != nil:
		return r.dres.Reached[pt]
	case r.sres != nil:
		return r.sres.Reached[pt]
	case r.odres != nil:
		return r.odres.Reached[pt]
	case r.osres != nil:
		return r.osres.Reached[pt]
	}
	return false
}

// reachedSlice returns the solver's reachability vector.
func (r *Result) reachedSlice() []bool {
	switch {
	case r.dres != nil:
		return r.dres.Reached
	case r.sres != nil:
		return r.sres.Reached
	case r.odres != nil:
		return r.odres.Reached
	case r.osres != nil:
		return r.osres.Reached
	}
	return nil
}

// MemAt returns the abstract memory before pt for interval runs. For sparse
// runs this is the partial memory over Û(pt) ∪ D̂(pt) — exactly the entries
// Lemma 2 guarantees (everything the command at pt reads or writes).
func (r *Result) MemAt(pt ir.PointID) mem.Mem {
	switch {
	case r.dres != nil:
		return r.dres.In[pt]
	case r.sres != nil:
		return r.sres.Acc[pt]
	}
	return mem.Bot
}

// ValueAt returns the abstract value of location l at point pt (interval
// domain). For the sparse analyzer the value is tracked only at points
// where l ∈ D̂ ∪ Û; tracked reports that.
func (r *Result) ValueAt(pt ir.PointID, l ir.LocID) (v val.Val, tracked bool) {
	switch {
	case r.dres != nil:
		return r.dres.In[pt].Get(l), true
	case r.sres != nil:
		m, ok := r.sres.ValueAt(r.graph, pt, l)
		return m.Get(l), ok
	}
	return val.Bot, false
}

// IntervalAt returns the numeric interval of location l at point pt,
// uniformly across domains (octagon runs project the singleton pack).
func (r *Result) IntervalAt(pt ir.PointID, l ir.LocID) (itv.Itv, bool) {
	switch {
	case r.dres != nil || r.sres != nil:
		v, ok := r.ValueAt(pt, l)
		return v.Itv(), ok
	case r.odres != nil:
		sp, ok := r.packs.Singleton(l)
		if !ok {
			return itv.Top, false
		}
		o := r.odres.In[pt].Get(sp)
		if o == nil {
			return itv.Bot, true
		}
		return o.Interval(0), true
	case r.osres != nil:
		sp, ok := r.packs.Singleton(l)
		if !ok {
			return itv.Top, false
		}
		m, tracked := r.osres.ValueAt(r.graph, pt, sp)
		if !tracked {
			return itv.Bot, false
		}
		o := m.Get(sp)
		if o == nil {
			return itv.Bot, true
		}
		return o.Interval(0), true
	}
	return itv.Bot, false
}

// LookupGlobal resolves a global variable name to its location.
func (r *Result) LookupGlobal(name string) (ir.LocID, bool) {
	return r.Prog.Locs.Lookup(ir.Loc{Kind: ir.LVar, Proc: ir.None, Name: name})
}

// GlobalAtExit returns the interval of a global at the program's final
// point (the root exit).
func (r *Result) GlobalAtExit(name string) (itv.Itv, bool) {
	l, ok := r.LookupGlobal(name)
	if !ok {
		return itv.Bot, false
	}
	root := r.Prog.ProcByID(r.Prog.Main)
	return r.IntervalAt(root.Exit, l)
}

// GlobalValueAtExit returns the full abstract value (interval, points-to
// targets, function set) of a global at the root exit, rendered as a
// string. Octagon runs render the projected interval.
func (r *Result) GlobalValueAtExit(name string) (string, bool) {
	l, ok := r.LookupGlobal(name)
	if !ok {
		return "", false
	}
	root := r.Prog.ProcByID(r.Prog.Main)
	if r.dres != nil || r.sres != nil {
		v, tracked := r.ValueAt(root.Exit, l)
		if !tracked {
			return "", false
		}
		return r.describeVal(v), true
	}
	iv, tracked := r.IntervalAt(root.Exit, l)
	if !tracked {
		return "", false
	}
	return iv.String(), true
}

// describeVal renders a value with location names instead of raw IDs.
func (r *Result) describeVal(v val.Val) string {
	if v.IsBot() {
		return "bot"
	}
	out := ""
	if !v.Itv().IsBot() {
		out = v.Itv().String()
	}
	for _, e := range v.Ptr() {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("&%s[off=%s,sz=%s]", r.Prog.Locs.String(e.Loc), e.R.Off, e.R.Sz)
	}
	for _, f := range v.Fns() {
		if out != "" {
			out += " "
		}
		out += "fn:" + r.Prog.ProcByID(f).Name
	}
	return out
}

// Alarms runs the configured checkers (Options.Checkers; default
// buffer-overrun, null-dereference, and division-by-zero) over the result
// (interval domains; octagon runs report no alarms since pointer values
// live in the interval analysis).
func (r *Result) Alarms() []check.Alarm {
	switch {
	case r.dres != nil, r.sres != nil:
		kinds := r.Opts.kinds()
		stop := r.col.Phase(metrics.PhaseCheck)
		alarms := check.RunKinds(r.Prog, r.isem, r.reachedSlice(), r.MemAt, kinds)
		stop()
		r.col.Set(metrics.CtrAlarms, int64(len(alarms)))
		for _, k := range kinds {
			if ctr, ok := alarmCounter(k); ok {
				n := int64(0)
				for _, a := range alarms {
					if a.Kind == k {
						n++
					}
				}
				r.col.Set(ctr, n)
			}
		}
		return alarms
	default:
		return nil
	}
}

// alarmCounter maps a checker kind to its per-kind alarm-count counter.
func alarmCounter(k check.Kind) (metrics.Counter, bool) {
	switch k {
	case check.BufferOverrun:
		return metrics.CtrAlarmsBuf, true
	case check.NullDeref:
		return metrics.CtrAlarmsNull, true
	case check.DivByZero:
		return metrics.CtrAlarmsDiv, true
	case check.UninitRead:
		return metrics.CtrAlarmsUninit, true
	}
	return 0, false
}

// entryMarksFor precomputes the per-procedure possibly-uninitialized mark
// sets of the uninit checker: every procedure-scoped variable the procedure
// accesses (transitively, so address-escaped locals count) minus its
// formals, which calls always bind. The sets are sorted — they filter the
// sorted Accessed slices — as sem.Sem.EntryMarks and dug require.
func entryMarksFor(prog *ir.Program, pre *prean.Result) func(ir.ProcID) []ir.LocID {
	marks := make([][]ir.LocID, len(prog.Procs))
	for _, pr := range prog.Procs {
		var out []ir.LocID
		for _, l := range pre.Accessed(pr.ID) {
			loc := prog.Locs.Get(l)
			if loc.Kind != ir.LVar || loc.Proc != pr.ID {
				continue
			}
			formal := false
			for _, f := range pr.Formals {
				if f == l {
					formal = true
					break
				}
			}
			if !formal {
				out = append(out, l)
			}
		}
		marks[pr.ID] = out
	}
	return func(p ir.ProcID) []ir.LocID { return marks[p] }
}

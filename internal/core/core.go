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
	"sparrow/internal/oct"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/sem"
	"sparrow/internal/solver/dense"
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
	// Deadline bounds the wall-clock time of the whole call. A breach in
	// any phase returns a *BudgetError at once: a cut fixpoint is not a
	// post-fixpoint, so no partial memory is ever returned.
	Deadline time.Duration
	// MemBudget is a soft cap, in bytes, on sampled heap growth above the
	// baseline at analysis start (internal/metrics heap sampler; 5ms
	// granularity). A breach ends the run like a Deadline breach.
	MemBudget uint64
	// FaultHook is the fault-injection checkpoint hook (internal/faultinject;
	// tests only). Installing it activates the budget layer even when no
	// limit is set.
	FaultHook rt.Hook
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

	// out is the domain-independent outcome of the run's solve; the typed
	// solver results below hold the memories, and exactly one is set.
	out   outcome
	dres  *dense.Result[mem.Mem]
	sres  *sparse.Result[val.Val]
	osem  *octsem.Sem
	packs *pack.Set
	odres *dense.Result[octsem.OMem]
	osres *sparse.Result[*oct.Oct]
}

// outcome is what every solve reports whatever its domain and mode.
type outcome struct {
	reached   []bool // control reachability per point
	steps     int
	widenings int // effective widenings
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
	if opt.Domain > Octagon {
		return &ConfigError{Opt: "Domain", Reason: fmt.Sprintf("unknown domain %d", opt.Domain)}
	}
	if opt.Mode > Sparse {
		return &ConfigError{Opt: "Mode", Reason: fmt.Sprintf("unknown mode %d", opt.Mode)}
	}
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

// AnalyzeProgram analyzes an already-lowered program.
//
// With a budget configured (Ctx, Deadline, MemBudget, or FaultHook), the
// analysis runs once under that budget, and its first breach, in whatever
// phase, returns a *BudgetError. Panics anywhere inside the analysis
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
	defer bud.Close()
	return analyzeAttempt(prog, opt, bud)
}

// analyzeAttempt runs the pipeline once under bud (nil = unbudgeted). It is
// the panic-isolation boundary: any panic below here is recovered into
// *AnalysisError, and a budget abort (rt.Abort, raised by a checkpoint of
// any phase) becomes *BudgetError.
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

	r.timed("prean", metrics.PhasePrean, func() { r.pre = prean.RunBudget(prog, bud) })
	pre := r.pre
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

	if opt.Domain == Octagon {
		r.runOctagon(opt)
	} else {
		r.runInterval(opt)
	}
	r.phase = "finish"

	r.Stats.Steps = r.out.steps
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
	for _, ok := range r.out.reached {
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
		r.sres.Entries(func(acc, out int) { bump(acc); bump(out) })
	case r.odres != nil:
		for _, m := range r.odres.In {
			bump(m.Len())
		}
	case r.osres != nil:
		r.osres.Entries(func(acc, out int) { bump(acc); bump(out) })
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

// runInterval sets up the interval domain and runs its one solve.
func (r *Result) runInterval(opt Options) {
	if opt.Mode != Sparse {
		r.dres = runDense(r, opt, r.isem, mem.Bot, r.pre.Accessed, dense.IntervalStride)
		return
	}
	build := dug.Build
	if opt.DefUseChains {
		build = dug.BuildDefUseChains
	}
	r.sres = runSparse(r, opt, sparse.Intervals(r.isem), func(o dug.Options) *dug.Graph {
		return build(r.Prog, r.pre, o)
	})
}

// runOctagon sets up the packed octagon domain and runs its one solve.
func (r *Result) runOctagon(opt Options) {
	r.phase = "pack"
	r.packs = pack.Build(r.Prog, pack.DefaultCap)
	osem, src := octsem.Source(r.Prog, r.pre, r.packs)
	r.osem = osem
	r.Stats.PackCount = r.packs.NumPacks()
	r.Stats.PackAvg = r.packs.AvgSize()
	opt.Metrics.Set(metrics.CtrPacks, int64(r.packs.NumPacks()))
	if opt.Mode != Sparse {
		// The initial memory is arbitrary: every pack starts at Top.
		accessed := func(p ir.ProcID) []pack.ID { return octsem.Accessed(src, p) }
		r.odres = runDense(r, opt, osem, osem.TopState(), accessed, dense.OctagonStride)
		return
	}
	// The octagon domain has no descending phase: Narrow is a no-op there.
	r.osres = runSparse(r, opt, sparse.Octagons(osem), func(o dug.Options) *dug.Graph {
		return dug.BuildFrom(src, o)
	})
}

// timed runs body as the pipeline stage name, timed as the metrics phase
// p, and returns its wall time. The phase is closed by a defer, so a budget
// abort or a panic that unwinds body still ends its pprof labels and trace
// region and records its time.
func (r *Result) timed(name string, p metrics.Phase, body func()) time.Duration {
	r.phase = name
	t := time.Now()
	defer r.col.Phase(p)()
	body()
	return time.Since(t)
}

// runDense runs the dense fixpoint of one domain (vanilla, or base with
// access-based localization) and records its outcome and phase time.
func runDense[M dense.Mem[M, K], K any](r *Result, opt Options, s dense.Sem[M], entry M, accessed func(ir.ProcID) []K, stride int) *dense.Result[M] {
	var res *dense.Result[M]
	r.Stats.FixTime = r.timed("fixpoint", metrics.PhaseFix, func() {
		res = dense.Analyze(r.Prog, r.pre, s, entry, accessed, stride, dense.Options{
			Localize: opt.Mode == Base,
			Narrow:   opt.Narrow,
			Metrics:  opt.Metrics,
			Budget:   r.bud,
		})
	})
	r.Stats.DepTime = r.Stats.PreTime
	r.out = outcome{res.Reached, res.Steps, res.Widenings}
	return res
}

// runSparse builds the def-use graph with build, runs the sparse fixpoint
// of dom on it, and records the graph statistics, the outcome and the phase
// times.
func runSparse[V sparse.Value[V]](r *Result, opt Options, dom sparse.Domain[V], build func(dug.Options) *dug.Graph) *sparse.Result[V] {
	r.Stats.DepTime = r.Stats.PreTime + r.timed("dug_build", metrics.PhaseDUG, func() {
		r.graph = build(dug.Options{Bypass: !opt.NoBypass, Metrics: opt.Metrics, EntryMarks: r.marks, Budget: r.bud})
	})
	var res *sparse.Result[V]
	r.Stats.FixTime = r.timed("fixpoint", metrics.PhaseFix, func() {
		res = sparse.Analyze(r.Prog, r.pre, dom, r.graph, sparse.Options{
			Narrow:  opt.Narrow,
			Metrics: opt.Metrics,
			Budget:  r.bud,
		})
	})
	r.Stats.DepEdges = r.graph.EdgeCount
	r.Stats.Phis = len(r.graph.Phis)
	r.Stats.AvgDefs, r.Stats.AvgUses = r.graph.AvgDefUse()
	r.out = outcome{res.Reached, res.Steps, res.Widenings}
	return res
}

// Graph exposes the def-use graph of a sparse run (nil otherwise), with its
// Defs/Uses slices filled.
func (r *Result) Graph() *dug.Graph { return r.graph.Views() }

// Pre exposes the pre-analysis result.
func (r *Result) Pre() *prean.Result { return r.pre }

// Packs exposes the octagon packing (nil for interval runs).
func (r *Result) Packs() *pack.Set { return r.packs }

// Reached reports control reachability of a point.
func (r *Result) Reached(pt ir.PointID) bool { return r.out.reached[pt] }

// MemAt returns the abstract memory before pt for interval runs. For sparse
// runs this is the partial memory over Û(pt) ∪ D̂(pt) — exactly the entries
// Lemma 2 guarantees (everything the command at pt reads or writes) — built
// from the solver's slots on each call.
func (r *Result) MemAt(pt ir.PointID) mem.Mem {
	switch {
	case r.dres != nil:
		return r.dres.In[pt]
	case r.sres != nil:
		return mem.FromSorted(r.sres.Acc(dug.NodeID(pt)))
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
		return r.sres.Value(pt, l)
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
		o, tracked := r.osres.Value(pt, sp)
		if !tracked {
			return itv.Bot, false
		}
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
	if r.Opts.Domain == Interval {
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
	if r.Opts.Domain != Interval {
		return nil
	}
	kinds := r.Opts.kinds()
	stop := r.col.Phase(metrics.PhaseCheck)
	alarms := check.RunKinds(r.Prog, r.isem, r.out.reached, r.MemAt, kinds)
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

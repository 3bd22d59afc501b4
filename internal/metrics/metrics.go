// Package metrics is the engine's observability layer: a low-overhead
// instrumentation surface (atomic counters, phase wall-clock timers, gauge
// snapshots) threaded through the analysis pipeline — frontend, pre-analysis,
// def-use-graph construction, and the fixpoint solvers — and rendered as a
// structured, schema-versioned Report.
//
// The paper's evaluation (Tables 1–3) is entirely about measuring the sparse
// framework: pre-analysis cost, dependency-graph size, fixpoint time, memory.
// This package makes those numbers first-class runtime outputs instead of
// after-the-fact table generators, so every later performance change can be
// judged against a recorded trajectory (see cmd/sparrow-bench and
// BENCH_sparse.json).
//
// Determinism contract: every Counter is schedule-independent — for a given
// program and analyzer configuration its value is bit-identical across
// repeated runs (the pipeline is sequential; internal/core's tests enforce
// it). Wall-clock timings and the heap gauge
// are explicitly NOT deterministic and live in a separate report section
// that regression tooling treats as report-only.
//
// All Collector methods are nil-receiver-safe: a nil *Collector is the
// disabled instrument, so call sites never branch. Counter updates are
// single atomic adds with no allocation, safe under -race from concurrent
// callers.
package metrics

import (
	"context"
	"encoding/json"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"time"
)

// Schema is the version of the Report wire format. Bump it when counters
// are added, removed, or change meaning; regression snapshots carry it so
// stale baselines fail loudly instead of comparing apples to oranges.
const Schema = 4

// Phase identifies one timed stage of the analysis pipeline.
type Phase uint8

// Pipeline phases, in execution order.
const (
	PhaseParse     Phase = iota // lexing + parsing
	PhaseLower                  // AST → IR lowering
	PhasePrean                  // flow-insensitive pre-analysis
	PhaseDUG                    // def-use-graph construction
	PhasePartition              // nothing times it; kept for benchmark/, which lists it
	PhaseFix                    // fixpoint computation (incl. narrowing)
	PhaseCheck                  // alarm checkers
	PhaseRestrict               // per-checker restricted closure+graph+solve
	PhaseRuntime                // budget checkpoint polls (deadline/heap/cancel checks)
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseParse:     "parse",
	PhaseLower:     "lower",
	PhasePrean:     "prean",
	PhaseDUG:       "dug_build",
	PhasePartition: "partition",
	PhaseFix:       "fixpoint",
	PhaseCheck:     "check",
	PhaseRestrict:  "restricted",
	PhaseRuntime:   "runtime",
}

func (p Phase) String() string { return phaseNames[p] }

// Counter identifies one deterministic counter. The catalogue maps onto the
// paper's evaluation columns: program shape (Table 1), dependency-graph size
// and per-statement D̂/Û (Tables 2–3), and solver work (the fixpoint columns).
type Counter uint8

// Counters.
const (
	// Program shape (Table 1).
	CtrIRProcs      Counter = iota // procedures (incl. synthetic __start)
	CtrIRPoints                    // control points
	CtrIRStatements                // statements (Table 1's Statements)
	CtrIRLocs                      // abstract locations (Table 1's AbsLocs)

	// Pre-analysis.
	CtrPreanPasses // global sweeps until stabilization

	// Def-use graph (Tables 2–3's Dep columns; the sparse-representation
	// size that parameterized-representation work tracks as the scalability
	// metric).
	CtrDUGNodes   // points + phis
	CtrDUGEdges   // ⟨from, loc, to⟩ dependency triples
	CtrDUGPhis    // SSA phi nodes
	CtrDUGSpliced // triples removed+added by the chain-bypass optimization
	CtrDUGDefs    // Σ|D̂(c)| over nodes
	CtrDUGUses    // Σ|Û(c)| over nodes

	// Fixpoint work.
	CtrPops      // worklist pops (node/point firings)
	CtrJoins     // value-changing join applications
	CtrWidenings // effective widenings (widened value ≠ plain join)
	CtrBypasses  // access-based localization bypass deliveries (dense base)

	// Result shape.
	CtrReachedPoints   // control points proved reachable
	CtrMemPeakEntries  // largest per-point abstract-memory entry count
	CtrMemTotalEntries // Σ per-point abstract-memory entries (footprint)
	CtrPacks           // octagon variable packs (octagon domains only)
	CtrAlarms          // alarms reported by the checkers

	// Per-checker alarm counts (the kinds actually run; zero otherwise).
	CtrAlarmsBuf
	CtrAlarmsNull
	CtrAlarmsDiv
	CtrAlarmsUninit

	// Restricted (symbol-specific) def-use graphs, one group of size
	// counters per checker kind: nodes that kept at least one D̂ or Û
	// member, (from, loc) successor rows, and ⟨from, loc, to⟩ dependency
	// triples. Populated by core's AnalyzeChecker; zero when per-checker
	// solves never ran.
	CtrRestrBufNodes
	CtrRestrBufEdges
	CtrRestrBufTriples
	CtrRestrNullNodes
	CtrRestrNullEdges
	CtrRestrNullTriples
	CtrRestrDivNodes
	CtrRestrDivEdges
	CtrRestrDivTriples
	CtrRestrUninitNodes
	CtrRestrUninitEdges
	CtrRestrUninitTriples

	// Fault-tolerant runtime (internal/runtime): cooperative checkpoint
	// polls and budget breaches (deadline/heap/cancel). Emitted only when a
	// budget was active (checkpoints > 0) so budget-free runs — and the
	// committed baselines — keep their counter key set.
	CtrRuntimeCheckpoints
	CtrRuntimeBreaches

	NumCounters
)

var counterNames = [NumCounters]string{
	CtrIRProcs:         "ir_procs",
	CtrIRPoints:        "ir_points",
	CtrIRStatements:    "ir_statements",
	CtrIRLocs:          "ir_locs",
	CtrPreanPasses:     "prean_passes",
	CtrDUGNodes:        "dug_nodes",
	CtrDUGEdges:        "dug_edges",
	CtrDUGPhis:         "dug_phis",
	CtrDUGSpliced:      "dug_spliced",
	CtrDUGDefs:         "dug_defs",
	CtrDUGUses:         "dug_uses",
	CtrPops:            "worklist_pops",
	CtrJoins:           "joins",
	CtrWidenings:       "widenings",
	CtrBypasses:        "bypasses",
	CtrReachedPoints:   "reached_points",
	CtrMemPeakEntries:  "mem_peak_entries",
	CtrMemTotalEntries: "mem_total_entries",
	CtrPacks:           "packs",
	CtrAlarms:          "alarms",

	CtrAlarmsBuf:    "alarms_buf",
	CtrAlarmsNull:   "alarms_null",
	CtrAlarmsDiv:    "alarms_div",
	CtrAlarmsUninit: "alarms_uninit",

	CtrRestrBufNodes:      "restr_buf_nodes",
	CtrRestrBufEdges:      "restr_buf_edges",
	CtrRestrBufTriples:    "restr_buf_triples",
	CtrRestrNullNodes:     "restr_null_nodes",
	CtrRestrNullEdges:     "restr_null_edges",
	CtrRestrNullTriples:   "restr_null_triples",
	CtrRestrDivNodes:      "restr_div_nodes",
	CtrRestrDivEdges:      "restr_div_edges",
	CtrRestrDivTriples:    "restr_div_triples",
	CtrRestrUninitNodes:   "restr_uninit_nodes",
	CtrRestrUninitEdges:   "restr_uninit_edges",
	CtrRestrUninitTriples: "restr_uninit_triples",

	CtrRuntimeCheckpoints: "runtime_checkpoints",
	CtrRuntimeBreaches:    "runtime_breaches",
}

func (c Counter) String() string { return counterNames[c] }

// Collector accumulates one analysis run's metrics. The zero value is ready
// to use; a nil *Collector is the disabled instrument (every method is a
// no-op), so instrumented code calls unconditionally.
type Collector struct {
	counters [NumCounters]atomic.Int64

	mu              sync.Mutex
	phases          [NumPhases]time.Duration
	phaseAllocBytes [NumPhases]uint64
	phaseAllocObjs  [NumPhases]uint64
	trackAllocs     bool
	// labels is the profiler label set of the innermost running phase
	// (nil or label-free outside every phase); see Phase.
	labels context.Context

	heapPeak atomic.Uint64
	heapBase uint64
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Add increments counter k by n.
func (c *Collector) Add(k Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[k].Add(n)
}

// Set stores n into counter k (idempotent snapshot counters).
func (c *Collector) Set(k Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[k].Store(n)
}

// SetMax raises counter k to n if n is larger (gauge high-watermarks).
func (c *Collector) SetMax(k Counter, n int64) {
	if c == nil {
		return
	}
	for {
		old := c.counters[k].Load()
		if n <= old || c.counters[k].CompareAndSwap(old, n) {
			return
		}
	}
}

// Get reads counter k (0 on a nil collector).
func (c *Collector) Get(k Counter) int64 {
	if c == nil {
		return 0
	}
	return c.counters[k].Load()
}

// Phase starts timing phase p and returns the stop function. Usage:
//
//	stop := col.Phase(metrics.PhaseParse)
//	... work ...
//	stop()
//
// Stopping adds the elapsed wall time to the phase (phases entered several
// times accumulate). Safe on a nil collector. With EnablePhaseAllocs, the
// allocation deltas of the phase are accumulated too.
//
// While the phase runs, the calling goroutine carries the pprof label
// phase=<name> and a runtime/trace region of the same name is open, so
// `go tool pprof -tagfocus phase=fixpoint` and `go tool trace` attribute
// samples to phases. Stopping ends the region and restores the labels of
// the enclosing phase (the restricted phase runs inside a sparse run), or
// none outside every phase. Labels and regions touch no counter.
func (c *Collector) Phase(p Phase) func() {
	if c == nil {
		return func() {}
	}
	end := c.enter(p)
	if c.trackAllocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b0, o0 := ms.TotalAlloc, ms.Mallocs
		t0 := time.Now()
		return func() {
			d := time.Since(t0)
			runtime.ReadMemStats(&ms)
			c.mu.Lock()
			c.phases[p] += d
			c.phaseAllocBytes[p] += ms.TotalAlloc - b0
			c.phaseAllocObjs[p] += ms.Mallocs - o0
			c.mu.Unlock()
			end()
		}
	}
	t0 := time.Now()
	return func() {
		c.AddPhase(p, time.Since(t0))
		end()
	}
}

// enter labels the calling goroutine with phase p and opens p's trace
// region; the returned function closes the region and restores the
// enclosing phase's labels. The phases of one collector nest on one
// goroutine, as the sequential pipeline runs them.
func (c *Collector) enter(p Phase) func() {
	c.mu.Lock()
	outer := c.labels
	if outer == nil {
		outer = context.Background()
	}
	ctx := pprof.WithLabels(outer, pprof.Labels("phase", p.String()))
	c.labels = ctx
	c.mu.Unlock()
	pprof.SetGoroutineLabels(ctx)
	region := trace.StartRegion(ctx, p.String())
	return func() {
		region.End()
		c.mu.Lock()
		c.labels = outer
		c.mu.Unlock()
		pprof.SetGoroutineLabels(outer)
	}
}

// EnablePhaseAllocs turns on per-phase allocation accounting: each Phase
// stop records the process-wide TotalAlloc/Mallocs deltas alongside the wall
// time. Off by default — the two ReadMemStats per phase are cheap next to
// any analysis phase but not free, and the numbers are report-only (they are
// process-global, so concurrent background work leaks in). Call before the
// run starts; phases time concurrently only within one phase, never across
// two, so the deltas nest correctly.
func (c *Collector) EnablePhaseAllocs() {
	if c == nil {
		return
	}
	c.trackAllocs = true
}

// AddPhase adds d to phase p's accumulated wall time.
func (c *Collector) AddPhase(p Phase, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.phases[p] += d
	c.mu.Unlock()
}

// PhaseTime reads phase p's accumulated wall time.
func (c *Collector) PhaseTime(p Phase) time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phases[p]
}

// StartHeapSampler records the current heap allocation as the baseline and
// samples runtime heap usage every interval until the returned stop function
// is called, tracking the peak. The peak-above-baseline appears in the
// report as PeakHeapBytes (a non-deterministic gauge: GC timing and sampling
// jitter move it run to run). interval <= 0 uses 5ms.
func (c *Collector) StartHeapSampler(interval time.Duration) (stop func()) {
	if c == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.heapBase = ms.HeapAlloc
	sample := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		for {
			old := c.heapPeak.Load()
			if m.HeapAlloc <= old || c.heapPeak.CompareAndSwap(old, m.HeapAlloc) {
				return
			}
		}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			sample()
			close(done)
			<-finished
		})
	}
}

// PeakHeapBytes returns the sampled peak heap growth above the baseline
// (0 without a sampler, or when the heap never grew).
func (c *Collector) PeakHeapBytes() uint64 {
	if c == nil {
		return 0
	}
	if p := c.heapPeak.Load(); p > c.heapBase {
		return p - c.heapBase
	}
	return 0
}

// Report is the structured snapshot of one run. Counters is the
// deterministic section — bit-identical across repeated runs of a fixed
// program and configuration — while TimingsNS and PeakHeapBytes vary run to
// run and are report-only in regression tooling.
type Report struct {
	Schema  int    `json:"schema"`
	Program string `json:"program,omitempty"`
	Domain  string `json:"domain,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Workers int    `json:"workers,omitempty"`

	Counters      map[string]int64 `json:"counters"`
	TimingsNS     map[string]int64 `json:"timings_ns,omitempty"`
	PeakHeapBytes uint64           `json:"peak_heap_bytes,omitempty"`

	// Per-phase allocation deltas (EnablePhaseAllocs only; report-only like
	// the timings — process-global, machine- and GC-schedule dependent).
	AllocBytesByPhase map[string]uint64 `json:"alloc_bytes_by_phase,omitempty"`
	AllocsByPhase     map[string]uint64 `json:"allocs_by_phase,omitempty"`
}

// Report snapshots the collector. Every catalogued counter appears (zeros
// included) so the counter section's key set is stable across runs and
// engine configurations; phases that never ran are omitted from timings.
// The one exception is the runtime group (runtime_*), omitted unless a
// budget was active (a budgeted run always polls at least one checkpoint),
// which keeps the counter key set of ordinary runs — and the committed
// regression baselines — byte-stable.
func (c *Collector) Report() *Report {
	r := &Report{Schema: Schema, Counters: make(map[string]int64, NumCounters)}
	budgetRan := c.Get(CtrRuntimeCheckpoints) != 0 || c.Get(CtrRuntimeBreaches) != 0
	for k := Counter(0); k < NumCounters; k++ {
		if (k == CtrRuntimeCheckpoints || k == CtrRuntimeBreaches) && !budgetRan {
			continue
		}
		r.Counters[counterNames[k]] = c.Get(k)
	}
	if c != nil {
		c.mu.Lock()
		for p := Phase(0); p < NumPhases; p++ {
			if c.phases[p] > 0 {
				if r.TimingsNS == nil {
					r.TimingsNS = make(map[string]int64, NumPhases)
				}
				r.TimingsNS[phaseNames[p]] = int64(c.phases[p])
			}
			if c.phaseAllocBytes[p] > 0 || c.phaseAllocObjs[p] > 0 {
				if r.AllocBytesByPhase == nil {
					r.AllocBytesByPhase = make(map[string]uint64, NumPhases)
					r.AllocsByPhase = make(map[string]uint64, NumPhases)
				}
				r.AllocBytesByPhase[phaseNames[p]] = c.phaseAllocBytes[p]
				r.AllocsByPhase[phaseNames[p]] = c.phaseAllocObjs[p]
			}
		}
		c.mu.Unlock()
		r.PeakHeapBytes = c.PeakHeapBytes()
	}
	return r
}

// MarshalIndent renders the report as indented JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CounterByName resolves a catalogue name to its Counter.
func CounterByName(name string) (Counter, bool) {
	for k := Counter(0); k < NumCounters; k++ {
		if counterNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

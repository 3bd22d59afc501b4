package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sparrow/internal/check"
	"sparrow/internal/core"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/metrics"
)

// span is one timed interval of a traced pass. Outside spans are timed by
// the benchmark around its calls into the analyzer. Program spans come from
// the analyzer's own phase timers, which record durations but not start
// times, so a program span is placed where its previous sibling ends, or at
// its parent's start.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Pass    int    `json:"pass"`
	Parent  int    `json:"parent"` // -1 for a pass
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Source  string `json:"source"` // "outside" or "program"
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps the spans of a run in memory; they are written out at exit.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) open(name string, pass, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Pass: pass, Parent: parent,
		StartNS: time.Since(t.epoch).Nanoseconds(), Source: "outside"})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) { t.spans[id].EndNS = time.Since(t.epoch).Nanoseconds() }

// program records the analyzer-timed children of span parent, back to back
// in pipeline order; zero durations (phases that did not run) are skipped.
func (t *tracer) program(parent int, names []string, durs []time.Duration) {
	p := t.spans[parent]
	at := p.StartNS
	for i, d := range durs {
		if d <= 0 {
			continue
		}
		t.spans = append(t.spans, span{ID: len(t.spans), Name: names[i], Pass: p.Pass, Parent: parent,
			StartNS: at, EndNS: at + d.Nanoseconds(), Source: "program"})
		at += d.Nanoseconds()
	}
}

// selfNS maps each span's ID to its duration minus the part of it that its
// children cover; spans holds every child of every span it holds.
func selfNS(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].StartNS < ch[b].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, c := range ch {
			lo, hi := max(c.StartNS, reach), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// analyzerPhases are the phase timers read as program spans under analyze,
// in pipeline order.
var analyzerPhases = []metrics.Phase{metrics.PhasePrean, metrics.PhaseDUG, metrics.PhasePartition, metrics.PhaseFix}

// spanNames maps per-layer time metrics to the spans they sum.
var spanNames = map[string]string{
	"parse.time_s":     "parse",
	"lower.time_s":     "lower",
	"analyze.time_s":   "analyze",
	"prean.time_s":     "prean",
	"dug.time_s":       "dug_build",
	"partition.time_s": "partition",
	"fixpoint.time_s":  "fixpoint",
	"check.time_s":     "check",
	"restrict.time_s":  "restrict",
	"restrict.solve_s": "restrict_solve",
}

// tracedInput is what a traced pass keeps for the checks.
type tracedInput struct {
	res    *core.Result
	rep    *metrics.Report
	alarms []check.Alarm
	runs   []*core.CheckerRun
}

// tracedPass analyzes one input in-process the way the CLI does, through
// the analyzer's public entry points, and returns the pass's per-layer
// values (trace.gap_s aside, which needs the CLI runs). opt is the CLI's
// configuration; restricted adds the per-checker solves of opt's kinds.
func tracedPass(tr *tracer, pass int, in input, opt core.Options, restricted bool) (map[string]float64, tracedInput, error) {
	var ti tracedInput
	var ms runtime.MemStats
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	alloc := func() uint64 { runtime.ReadMemStats(&ms); return ms.TotalAlloc }
	v := map[string]float64{}

	runtime.GC() // garbage of the previous pass is not this pass's cost
	first := len(tr.spans)
	passID := tr.open("pass", pass, -1)
	fail := func(err error) (map[string]float64, tracedInput, error) {
		tr.close(passID)
		return nil, ti, fmt.Errorf("%s: %w", in.name, err)
	}
	a0 := alloc()
	id := tr.open("parse", pass, passID)
	f, err := parser.Parse(in.name, in.src)
	tr.close(id)
	if err != nil {
		return fail(err)
	}
	id = tr.open("lower", pass, passID)
	prog, err := lower.File(f)
	tr.close(id)
	if err != nil {
		return fail(err)
	}
	a1 := alloc()
	v["frontend.alloc_mb"] = mb(a1 - a0)
	v["ir.statements"] = float64(prog.NumStatements())

	col := metrics.New()
	col.EnablePhaseAllocs()
	o := opt
	o.Metrics = col
	analyzeID := tr.open("analyze", pass, passID)
	res, err := core.AnalyzeProgram(prog, o)
	tr.close(analyzeID)
	if err != nil {
		return fail(err)
	}
	v["analyze.alloc_mb"] = mb(alloc() - a1)
	names := make([]string, len(analyzerPhases))
	durs := make([]time.Duration, len(analyzerPhases))
	for i, p := range analyzerPhases {
		names[i], durs[i] = p.String(), col.PhaseTime(p)
	}
	tr.program(analyzeID, names, durs)

	id = tr.open("check", pass, passID)
	ti.res, ti.alarms = res, res.Alarms()
	tr.close(id)
	var restrTriples, fullTriples, restrSteps int
	if restricted {
		for _, k := range opt.Kinds() {
			id = tr.open("restrict", pass, passID)
			cr, err := res.AnalyzeChecker(k)
			tr.close(id)
			if err != nil {
				return fail(err)
			}
			tr.program(id, []string{"restrict_solve"}, []time.Duration{cr.SolveTime})
			ti.runs = append(ti.runs, cr)
			restrTriples += cr.Triples
			fullTriples += cr.FullTriples
			restrSteps += cr.Steps
		}
	}
	tr.close(passID)

	ti.rep = res.MetricsReport()
	c := ti.rep.Counters
	v["prean.passes"] = float64(c["prean_passes"])
	v["dug.triples"] = float64(c["dug_edges"])
	v["dug.alloc_mb"] = mb(ti.rep.AllocBytesByPhase["dug_build"])
	v["partition.components"] = float64(c["components"])
	v["fixpoint.steps"] = float64(c["worklist_pops"])
	v["fixpoint.widenings"] = float64(c["widenings"])
	v["fixpoint.alloc_mb"] = mb(ti.rep.AllocBytesByPhase["fixpoint"])
	v["check.alarms"] = float64(len(ti.alarms))
	v["restrict.steps"] = float64(restrSteps)

	spans := tr.spans[first:]
	for metric, name := range spanNames {
		v[metric] = 0
		for _, s := range spans {
			if s.Name == name {
				v[metric] += float64(s.dur()) / 1e9
			}
		}
	}
	v["analyze.self_s"] = float64(selfNS(spans)[analyzeID]) / 1e9
	v["dug.triples_per_s"] = ratio(v["dug.triples"], v["dug.time_s"])
	v["fixpoint.steps_per_s"] = ratio(v["fixpoint.steps"], v["fixpoint.time_s"])
	v["fixpoint.useful_ratio"] = ratio(float64(c["joins"]), v["fixpoint.steps"])
	v["restrict.triples_ratio"] = ratio(float64(restrTriples), float64(fullTriples))
	return v, ti, nil
}

// ratio is a/b, or 0 when the layer did no work (b = 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

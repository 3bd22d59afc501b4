// Package bench is the benchmark-regression harness: it runs a fixed suite
// of programs (the test corpus plus generated programs at two scales)
// through all six analyzers, snapshots the deterministic work counters of
// internal/metrics, and diffs snapshots against a committed baseline
// (BENCH_sparse.json). Counters are schedule-independent, so the default
// comparison is exact; wall times and heap are recorded for human reading
// but never gated.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sparrow/internal/cgen"
	"sparrow/internal/check"
	"sparrow/internal/core"
	"sparrow/internal/metrics"
)

// Program is one suite member: a name and its source text.
type Program struct {
	Name string
	Src  string
}

// Config is one analyzer configuration of the suite.
type Config struct {
	Domain core.Domain
	Mode   core.Mode
}

// Configs returns the six analyzer configurations of Tables 2 and 3.
func Configs() []Config {
	return []Config{
		{core.Interval, core.Vanilla},
		{core.Interval, core.Base},
		{core.Interval, core.Sparse},
		{core.Octagon, core.Vanilla},
		{core.Octagon, core.Base},
		{core.Octagon, core.Sparse},
	}
}

// Entry is one (program, domain, mode) measurement. Counters is the full
// deterministic counter section of the metrics report; TimingsNS is
// report-only context and never compared.
type Entry struct {
	Program   string           `json:"program"`
	Domain    string           `json:"domain"`
	Mode      string           `json:"mode"`
	Counters  map[string]int64 `json:"counters"`
	TimingsNS map[string]int64 `json:"timings_ns,omitempty"`
}

// Key identifies the entry inside a snapshot.
func (e Entry) Key() string { return e.Program + "/" + e.Domain + "/" + e.Mode }

// Snapshot is a schema-versioned collection of entries, sorted by key.
type Snapshot struct {
	Schema  int     `json:"schema"`
	Entries []Entry `json:"entries"`
}

// sortEntries establishes the canonical entry order.
func (s *Snapshot) sortEntries() {
	sort.Slice(s.Entries, func(i, j int) bool { return s.Entries[i].Key() < s.Entries[j].Key() })
}

// byKey indexes the snapshot.
func (s *Snapshot) byKey() map[string]Entry {
	m := make(map[string]Entry, len(s.Entries))
	for _, e := range s.Entries {
		m[e.Key()] = e
	}
	return m
}

// CorpusPrograms loads every .c file of dir (the shared test corpus),
// sorted by name.
func CorpusPrograms(dir string) ([]Program, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("bench: no .c files under %s", dir)
	}
	sort.Strings(names)
	var out []Program
	for _, n := range names {
		src, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		out = append(out, Program{Name: strings.TrimSuffix(filepath.Base(n), ".c"), Src: string(src)})
	}
	return out, nil
}

// GeneratedPrograms returns the two cgen-scaled members of the suite. The
// generator is seeded, so the sources — and therefore every counter — are
// reproducible across machines.
func GeneratedPrograms() []Program {
	return []Program{
		{Name: "gen-400", Src: cgen.Generate(cgen.Default(42, 400))},
		{Name: "gen-1000", Src: cgen.Generate(cgen.Default(43, 1000))},
	}
}

// Suite composes the full benchmark suite: corpus + generated programs.
func Suite(corpusDir string) ([]Program, error) {
	progs, err := CorpusPrograms(corpusDir)
	if err != nil {
		return nil, err
	}
	return append(progs, GeneratedPrograms()...), nil
}

// Options configures a collection run.
type Options struct {
	// Timings records per-phase wall times in the entries (off for
	// committed baselines: they churn on every machine).
	Timings bool
	// Progress, when non-nil, receives one line per completed entry.
	Progress func(string)
}

// TimesSchema versions the BENCH_times.json wire format, independently of
// metrics.Schema (which gates the deterministic counter snapshot
// BENCH_sparse.json and must not churn when report-only fields evolve).
// Schema 2 adds the per-phase allocation breakdowns.
const TimesSchema = 2

// TimesEntry is the report-only performance record of one suite entry: total
// wall time, the per-phase breakdown of the metrics phase timers, and the
// bytes allocated by the run (runtime.MemStats TotalAlloc delta), plus — since
// times schema 2 — per-phase allocation deltas (bytes and object counts; the
// dug_build and fixpoint rows are the ones the sparse hot path moves). None of
// it is ever gated — wall times and allocation volumes churn with machine,
// scheduler, and Go release — but snapshotting them per commit populates the
// performance trajectory of the engine over time.
type TimesEntry struct {
	Program           string            `json:"program"`
	Domain            string            `json:"domain"`
	Mode              string            `json:"mode"`
	Workers           int               `json:"workers"`
	WallNS            int64             `json:"wall_ns"`
	AllocBytes        uint64            `json:"alloc_bytes"`
	TimingsNS         map[string]int64  `json:"timings_ns,omitempty"`
	AllocBytesByPhase map[string]uint64 `json:"alloc_bytes_by_phase,omitempty"`
	AllocsByPhase     map[string]uint64 `json:"allocs_by_phase,omitempty"`
}

// Key identifies the entry inside a times snapshot.
func (e TimesEntry) Key() string { return e.Program + "/" + e.Domain + "/" + e.Mode }

// TimesSnapshot is the report-only companion of Snapshot (BENCH_times.json).
type TimesSnapshot struct {
	Schema     int          `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Entries    []TimesEntry `json:"entries"`
}

// Save writes the times snapshot (indented, trailing newline, stable order).
func (s *TimesSnapshot) Save(path string) error {
	sort.Slice(s.Entries, func(i, j int) bool { return s.Entries[i].Key() < s.Entries[j].Key() })
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadTimes reads a times snapshot file.
func LoadTimes(path string) (*TimesSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s TimesSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

// CompareTimes renders a per-entry performance delta between two times
// snapshots: wall time, allocated bytes, and — when both sides carry them
// (times schema 2) — the dug_build and fixpoint phase times, each with the
// percent change relative to the old side. Entries present on only one side
// are reported as added/removed. The output is a human-readable table; no
// threshold is applied (wall times are report-only, never gated).
func CompareTimes(old, new *TimesSnapshot) []string {
	om := make(map[string]TimesEntry, len(old.Entries))
	for _, e := range old.Entries {
		om[e.Key()] = e
	}
	nm := make(map[string]TimesEntry, len(new.Entries))
	var keys []string
	for _, e := range new.Entries {
		nm[e.Key()] = e
		keys = append(keys, e.Key())
	}
	for k := range om {
		if _, ok := nm[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	lines := []string{fmt.Sprintf("%-34s %26s %30s %26s", "entry", "wall", "alloc_bytes", "fixpoint")}
	pct := func(o, n int64) string {
		if o == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*float64(n-o)/float64(o))
	}
	for _, k := range keys {
		oe, inOld := om[k]
		ne, inNew := nm[k]
		switch {
		case !inNew:
			lines = append(lines, fmt.Sprintf("%-34s removed", k))
			continue
		case !inOld:
			lines = append(lines, fmt.Sprintf("%-34s added (wall %s, %d B)", k, time.Duration(ne.WallNS), ne.AllocBytes))
			continue
		}
		fix := "n/a"
		if of, nf := oe.TimingsNS["fixpoint"], ne.TimingsNS["fixpoint"]; of > 0 && nf > 0 {
			fix = fmt.Sprintf("%v -> %v %s", time.Duration(of).Round(time.Microsecond),
				time.Duration(nf).Round(time.Microsecond), pct(of, nf))
		}
		lines = append(lines, fmt.Sprintf("%-34s %26s %30s %26s", k,
			fmt.Sprintf("%v -> %v %s", time.Duration(oe.WallNS).Round(time.Microsecond),
				time.Duration(ne.WallNS).Round(time.Microsecond), pct(oe.WallNS, ne.WallNS)),
			fmt.Sprintf("%d -> %d %s", oe.AllocBytes, ne.AllocBytes, pct(int64(oe.AllocBytes), int64(ne.AllocBytes))),
			fix))
	}
	return lines
}

// Collect runs every program under every configuration and returns the
// counter snapshot.
func Collect(progs []Program, opt Options) (*Snapshot, error) {
	snap, _, err := collect(progs, opt, false)
	return snap, err
}

// CollectWithTimes is Collect plus the report-only times snapshot, measured
// around each entry's analysis.
func CollectWithTimes(progs []Program, opt Options) (*Snapshot, *TimesSnapshot, error) {
	return collect(progs, opt, true)
}

func collect(progs []Program, opt Options, withTimes bool) (*Snapshot, *TimesSnapshot, error) {
	snap := &Snapshot{Schema: metrics.Schema}
	var times *TimesSnapshot
	if withTimes {
		times = &TimesSnapshot{
			Schema:     TimesSchema,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		}
	}
	for _, p := range progs {
		for _, cfg := range Configs() {
			col := metrics.New()
			if withTimes {
				col.EnablePhaseAllocs()
			}
			var msBefore runtime.MemStats
			if withTimes {
				runtime.ReadMemStats(&msBefore)
			}
			start := time.Now()
			copt := core.Options{
				Domain:  cfg.Domain,
				Mode:    cfg.Mode,
				Metrics: col,
			}
			// The sparse interval entries carry the per-checker
			// sparsification numbers: all four checkers on the full solve,
			// then one restricted solve per kind, filling the restr_* size
			// counters (gated exactly like every other counter) and the
			// per-kind solve times (report-only; zero for a kind that
			// reused an earlier kind's solve).
			sparsified := cfg.Domain == core.Interval && cfg.Mode == core.Sparse
			if sparsified {
				copt.Checkers = check.AllKinds
			}
			res, err := core.AnalyzeSource(p.Name+".c", p.Src, copt)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: %s %v/%v: %w", p.Name, cfg.Domain, cfg.Mode, err)
			}
			res.Alarms() // populate the alarm counter
			restrNS := map[string]int64{}
			if sparsified {
				for _, k := range check.AllKinds {
					cr, err := res.AnalyzeChecker(k)
					if err != nil {
						return nil, nil, fmt.Errorf("bench: %s %v: %w", p.Name, k, err)
					}
					restrNS["restr_"+k.ShortName()+"_solve"] = cr.SolveTime.Nanoseconds()
				}
			}
			wall := time.Since(start)
			rep := res.MetricsReport()
			for name, ns := range restrNS {
				rep.TimingsNS[name] = ns
			}
			e := Entry{
				Program:  p.Name,
				Domain:   rep.Domain,
				Mode:     rep.Mode,
				Counters: rep.Counters,
			}
			if opt.Timings {
				e.TimingsNS = rep.TimingsNS
			}
			snap.Entries = append(snap.Entries, e)
			if withTimes {
				var msAfter runtime.MemStats
				runtime.ReadMemStats(&msAfter)
				times.Entries = append(times.Entries, TimesEntry{
					Program:           p.Name,
					Domain:            rep.Domain,
					Mode:              rep.Mode,
					Workers:           rep.Workers,
					WallNS:            wall.Nanoseconds(),
					AllocBytes:        msAfter.TotalAlloc - msBefore.TotalAlloc,
					TimingsNS:         rep.TimingsNS,
					AllocBytesByPhase: rep.AllocBytesByPhase,
					AllocsByPhase:     rep.AllocsByPhase,
				})
			}
			if opt.Progress != nil {
				opt.Progress(fmt.Sprintf("%s: pops=%d joins=%d", e.Key(), e.Counters["worklist_pops"], e.Counters["joins"]))
			}
		}
	}
	snap.sortEntries()
	return snap, times, nil
}

// Load reads a snapshot file.
func Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &s, nil
}

// Save writes a snapshot file (indented, trailing newline, stable order).
func (s *Snapshot) Save(path string) error {
	s.sortEntries()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Compare diffs got against the baseline. Counters are compared with the
// given relative tolerance (0 = exact, the default gate: they are
// deterministic); missing or extra entries and schema drift are always
// reported. The returned strings are human-readable regression lines;
// empty means the gate passes.
func Compare(base, got *Snapshot, tol float64) []string {
	var diffs []string
	if base.Schema != got.Schema {
		diffs = append(diffs, fmt.Sprintf("schema: baseline %d vs current %d (regenerate the baseline)", base.Schema, got.Schema))
		return diffs
	}
	bm, gm := base.byKey(), got.byKey()
	var keys []string
	for k := range bm {
		keys = append(keys, k)
	}
	for k := range gm {
		if _, ok := bm[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		be, inBase := bm[k]
		ge, inGot := gm[k]
		switch {
		case !inGot:
			diffs = append(diffs, fmt.Sprintf("%s: missing from current run", k))
			continue
		case !inBase:
			diffs = append(diffs, fmt.Sprintf("%s: not in baseline (add it by regenerating)", k))
			continue
		}
		var names []string
		for name := range be.Counters {
			names = append(names, name)
		}
		for name := range ge.Counters {
			if _, ok := be.Counters[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			bv, inB := be.Counters[name]
			gv, inG := ge.Counters[name]
			switch {
			case !inG:
				diffs = append(diffs, fmt.Sprintf("%s: counter %s missing (baseline %d)", k, name, bv))
			case !inB:
				diffs = append(diffs, fmt.Sprintf("%s: new counter %s=%d not in baseline", k, name, gv))
			case !within(bv, gv, tol):
				diffs = append(diffs, fmt.Sprintf("%s: counter %s: baseline %d vs current %d", k, name, bv, gv))
			}
		}
	}
	return diffs
}

// within reports |b-g| <= tol*|b|.
func within(b, g int64, tol float64) bool {
	if b == g {
		return true
	}
	d := b - g
	if d < 0 {
		d = -d
	}
	ab := b
	if ab < 0 {
		ab = -ab
	}
	return float64(d) <= tol*float64(ab)
}

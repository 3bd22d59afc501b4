// Package bench is the benchmark-regression harness: it runs a fixed suite
// of programs (the test corpus plus generated programs at two scales)
// through all six analyzers, snapshots the deterministic work counters of
// internal/metrics, and diffs snapshots against a committed baseline
// (BENCH_sparse.json). Counters are schedule-independent, so the comparison
// is exact. Nothing here measures time: the repeated end-to-end timing
// harness is benchmark/.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

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

// Entry is one (program, domain, mode) measurement: the full deterministic
// counter section of the metrics report.
type Entry struct {
	Program  string           `json:"program"`
	Domain   string           `json:"domain"`
	Mode     string           `json:"mode"`
	Counters map[string]int64 `json:"counters"`
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
	// Progress, when non-nil, receives one line per completed entry.
	Progress func(string)
}

// Collect runs every program under every configuration and returns the
// counter snapshot.
func Collect(progs []Program, opt Options) (*Snapshot, error) {
	snap := &Snapshot{Schema: metrics.Schema}
	for _, p := range progs {
		for _, cfg := range Configs() {
			copt := core.Options{
				Domain:  cfg.Domain,
				Mode:    cfg.Mode,
				Metrics: metrics.New(),
			}
			// The sparse interval entries carry the per-checker
			// sparsification numbers: all four checkers on the full solve,
			// then one restricted solve per kind, filling the restr_* size
			// counters.
			sparsified := cfg.Domain == core.Interval && cfg.Mode == core.Sparse
			if sparsified {
				copt.Checkers = check.AllKinds
			}
			res, err := core.AnalyzeSource(p.Name+".c", p.Src, copt)
			if err != nil {
				return nil, fmt.Errorf("bench: %s %v/%v: %w", p.Name, cfg.Domain, cfg.Mode, err)
			}
			res.Alarms() // populate the alarm counter
			if sparsified {
				for _, k := range check.AllKinds {
					if _, err := res.AnalyzeChecker(k); err != nil {
						return nil, fmt.Errorf("bench: %s %v: %w", p.Name, k, err)
					}
				}
			}
			rep := res.MetricsReport()
			e := Entry{
				Program:  p.Name,
				Domain:   rep.Domain,
				Mode:     rep.Mode,
				Counters: rep.Counters,
			}
			snap.Entries = append(snap.Entries, e)
			if opt.Progress != nil {
				opt.Progress(fmt.Sprintf("%s: pops=%d joins=%d", e.Key(), e.Counters["worklist_pops"], e.Counters["joins"]))
			}
		}
	}
	snap.sortEntries()
	return snap, nil
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

// Compare diffs got against the baseline. Counters are deterministic, so
// they are compared exactly; missing or extra entries and schema drift are
// reported too. The returned strings are human-readable regression lines;
// empty means the gate passes.
func Compare(base, got *Snapshot) []string {
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
			case bv != gv:
				diffs = append(diffs, fmt.Sprintf("%s: counter %s: baseline %d vs current %d", k, name, bv, gv))
			}
		}
	}
	return diffs
}

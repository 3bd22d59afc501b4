// Warm-vs-cold incremental timing collection: the report-only companion of
// the counter suite for the snapshot solver. Each program is solved cold
// into a fresh snapshot, the snapshot is round-tripped through the codec
// (exactly what a warm CLI run reloads), and the unchanged program is
// re-solved warm — the pure-replay upper bound of the incremental speedup.
// Wall times churn with the machine, so nothing here is ever gated; CI
// archives the file as the incremental-performance trajectory.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sparrow/internal/core"
	"sparrow/internal/incr"
)

// IncrTimesSchema versions the warm-vs-cold snapshot wire format,
// independently of the gated counter schema.
const IncrTimesSchema = 1

// IncrEntry records one program's warm-vs-cold economics.
type IncrEntry struct {
	Program    string `json:"program"`
	ColdNS     int64  `json:"cold_ns"`
	WarmNS     int64  `json:"warm_ns"`
	Components int    `json:"components"`
	// Hits/Misses/Resolved describe the warm run; on an unchanged program
	// Misses and Resolved are 0 by the from-scratch-equivalence contract.
	Hits     int `json:"hits"`
	Misses   int `json:"misses"`
	Resolved int `json:"resolved"`
	// SnapshotBytes is the encoded snapshot size — the storage cost of
	// incrementality for this program.
	SnapshotBytes int `json:"snapshot_bytes"`
}

// IncrSnapshot is the report-only warm-vs-cold timing file (BENCH_incr.json
// as a CI artifact; not committed).
type IncrSnapshot struct {
	Schema     int         `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Entries    []IncrEntry `json:"entries"`
}

// Save writes the snapshot (indented, trailing newline, suite order).
func (s *IncrSnapshot) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// CollectIncr runs the warm-vs-cold comparison over the suite's sparse
// interval configuration. The warm solve must replay every component (the
// program is unchanged); a miss is an error, not a statistic — it would
// mean the hash or codec lost determinism between two solves in the same
// process.
func CollectIncr(progs []Program) (*IncrSnapshot, error) {
	snap := &IncrSnapshot{
		Schema:     IncrTimesSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, p := range progs {
		opt := core.Options{Domain: core.Interval, Mode: core.Sparse, Workers: 1}

		cold := opt
		cold.Incr = incr.NewCache(0, 0)
		t0 := time.Now()
		if _, err := core.AnalyzeSource(p.Name+".c", p.Src, cold); err != nil {
			return nil, fmt.Errorf("%s: cold: %w", p.Name, err)
		}
		coldNS := time.Since(t0).Nanoseconds()

		data, err := cold.Incr.Encode()
		if err != nil {
			return nil, fmt.Errorf("%s: encode: %w", p.Name, err)
		}
		loaded, err := incr.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: decode: %w", p.Name, err)
		}
		warm := opt
		warm.Incr = loaded
		t0 = time.Now()
		res, err := core.AnalyzeSource(p.Name+".c", p.Src, warm)
		if err != nil {
			return nil, fmt.Errorf("%s: warm: %w", p.Name, err)
		}
		warmNS := time.Since(t0).Nanoseconds()
		if res.Stats.IncrMisses != 0 || res.Stats.IncrResolved != 0 {
			return nil, fmt.Errorf("%s: warm solve of the unchanged program re-solved %d runs / %d components",
				p.Name, res.Stats.IncrMisses, res.Stats.IncrResolved)
		}

		snap.Entries = append(snap.Entries, IncrEntry{
			Program:       p.Name,
			ColdNS:        coldNS,
			WarmNS:        warmNS,
			Components:    res.Stats.Components,
			Hits:          res.Stats.IncrHits,
			Misses:        res.Stats.IncrMisses,
			Resolved:      res.Stats.IncrResolved,
			SnapshotBytes: len(data),
		})
	}
	return snap, nil
}

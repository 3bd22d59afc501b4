package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"sparrow/internal/cgen"
	"sparrow/internal/check"
	"sparrow/internal/core"
)

// spec is the part of BENCHMARK.json the benchmark reads: which workloads exist
// and which metrics it must emit, with their units and bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"` // end-to-end metrics only
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var declared []string
	for _, d := range s.Workloads {
		declared = append(declared, d.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	slices.Sort(declared)
	slices.Sort(defined)
	if !slices.Equal(declared, defined) {
		return nil, fmt.Errorf("%s declares workloads %v, the benchmark defines %v", path, declared, defined)
	}
	return &s, nil
}

// workload is one input suite and the CLI configuration it is analyzed
// with. A run sends the suite's files to the CLI one at a time, round-robin.
type workload struct {
	name string
	// stmts sizes the suite's cgen.Default programs and suite is how many
	// of them a seed draws; stmts 0 selects the hand-written corpus, whose
	// files are the same at every seed. Analysis time varies a lot between
	// generated programs, so a run times many of them and reports medians.
	stmts, suite int
	// traced is how many of the suite's files the in-process checks and the
	// traced passes cover, the first ones.
	traced int
	// warmups is how many CLI runs each set-up makes.
	warmups    int
	domain     core.Domain
	mode       core.Mode
	checkers   string // -checkers value; "" keeps the CLI default
	restricted bool
}

// The reasons for each workload are in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "sparse-4k", stmts: 4000, suite: 64, traced: 3, warmups: 1, domain: core.Interval, mode: core.Sparse},
	{name: "octagon-2k", stmts: 2000, suite: 96, traced: 5, warmups: 1, domain: core.Octagon, mode: core.Sparse},
	{name: "base-500", stmts: 500, suite: 512, traced: 5, warmups: 1, domain: core.Interval, mode: core.Base},
	{name: "checkers-3k", stmts: 3000, suite: 64, traced: 5, warmups: 1, domain: core.Interval, mode: core.Sparse, checkers: "all", restricted: true},
	{name: "corpus", traced: 14, warmups: 14, domain: core.Interval, mode: core.Sparse},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// flags are the CLI flags of the workload, besides -stats-json.
func (w workload) flags() []string {
	var f []string
	if w.domain != core.Interval {
		f = append(f, "-domain", w.domain.String())
	}
	if w.mode != core.Sparse {
		f = append(f, "-mode", w.mode.String())
	}
	if w.checkers != "" {
		f = append(f, "-checkers", w.checkers)
	}
	if w.restricted {
		f = append(f, "-restricted")
	}
	return f
}

// kinds are the checker kinds the workload's CLI run reports.
func (w workload) kinds() ([]check.Kind, error) {
	if w.checkers == "" {
		return nil, nil
	}
	return check.ParseKinds(w.checkers)
}

// input is one source file of a workload.
type input struct {
	name string // file name, the key of the corpus verdict table
	path string
	src  string
}

// writeInputs makes the workload's suite for seed and writes it under dir,
// from where the CLI reads it.
func (w workload) writeInputs(root string, seed uint64, dir string) ([]input, error) {
	var ins []input
	if w.stmts > 0 {
		for i := 0; i < w.suite; i++ {
			name := fmt.Sprintf("gen%d-%d-%02d.c", w.stmts, seed, i)
			ins = append(ins, input{name: name, src: cgen.Generate(cgen.Default(seed<<16|uint64(i), w.stmts))})
		}
	} else {
		paths, err := filepath.Glob(filepath.Join(root, "testdata", "corpus", "*.c"))
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no corpus files under %s", filepath.Join(root, "testdata", "corpus"))
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			ins = append(ins, input{name: filepath.Base(p), src: string(b)})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := range ins {
		ins[i].path = filepath.Join(dir, ins[i].name)
		if err := os.WriteFile(ins[i].path, []byte(ins[i].src), 0o644); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

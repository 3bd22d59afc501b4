package dug_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/check"
	"sparrow/internal/core"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/octsem"
	"sparrow/internal/pack"
	"sparrow/internal/prean"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/golden/dug/digests.txt")

const digestFile = "../../testdata/golden/dug/digests.txt"

// graphDigest hashes everything a solver reads from g: the phis, the widening
// marks, the priorities, D̂/Û per node, every dependency triple in Range
// order, and the size counters. Equal digests mean equal graphs, row order
// included.
func graphDigest(g *dug.Graph) string {
	h := sha256.New()
	put := func(vs ...int) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	putLocs := func(s []ir.LocID) {
		put(len(s))
		for _, l := range s {
			put(int(l))
		}
	}
	put(g.PointCount, len(g.Phis), g.EdgeCount, g.SplicedTriples)
	for _, ph := range g.Phis {
		put(int(ph.At), int(ph.Loc))
	}
	for n := 0; n < g.NumNodes(); n++ {
		w := 0
		if g.Widen[n] {
			w = 1
		}
		put(w, g.Prio[n])
		putLocs(g.DefsOf(dug.NodeID(n)))
		putLocs(g.UsesOf(dug.NodeID(n)))
	}
	g.Range(func(from dug.NodeID, l ir.LocID, to dug.NodeID) bool {
		put(int(from), int(l), int(to))
		return true
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

func lowerSource(t testing.TB, name, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("%s: lower: %v", name, err)
	}
	return prog
}

// fuzzDigestSeeds are cgen.Fuzz seeds whose configurations enable gotos,
// switches and short-circuit conditions: the generated control flow on which
// the DFS order decides which CFG edges are back edges.
var fuzzDigestSeeds = []uint64{1, 2, 41}

// fuzzDigestSource generates the cgen.Fuzz program of seed, scaled to about
// 1,500 statements.
func fuzzDigestSource(t *testing.T, seed uint64) string {
	t.Helper()
	c := cgen.Fuzz(seed, 1500)
	if !c.Gotos || c.SwitchEvery == 0 || !c.ShortCircuit {
		t.Fatalf("fuzz seed %d: gotos=%v switch=%d shortcircuit=%v", seed, c.Gotos, c.SwitchEvery, c.ShortCircuit)
	}
	c.Funcs = 1500 / (c.StmtsPerFunc + 4)
	return cgen.Generate(c)
}

// digestInputs are the corpus files, gen-1000 of the benchmark suite, the
// first two programs of the seed-7 gen-4000 suite, and three fuzz programs
// with gotos, switches and short-circuit conditions.
func digestInputs(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"gen-1000":     cgen.Generate(cgen.Default(43, 1000)),
		"gen-4000-7-0": cgen.Generate(cgen.Default(7<<16|0, 4000)),
		"gen-4000-7-1": cgen.Generate(cgen.Default(7<<16|1, 4000)),
	}
	for _, seed := range fuzzDigestSeeds {
		srcs[fmt.Sprintf("fuzz-1500-%d", seed)] = fuzzDigestSource(t, seed)
	}
	paths, err := filepath.Glob("../../testdata/corpus/*.c")
	if err != nil || len(paths) != 14 {
		t.Fatalf("corpus glob: %d files, %v", len(paths), err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(p), ".c")] = string(b)
	}
	return srcs
}

// TestGraphDigest pins the exact def-use graph the builder produces for the
// corpus and generated programs, with and without the chain bypass, with
// uninitialized-read entry marks, and for the octagon pack source (of every
// input but the gen-4000 programs). Counters
// alone cannot catch a reordered row or a renumbered phi; the digest can.
// Regenerate with `go test ./internal/dug -run TestGraphDigest -update` only
// for a change that is meant to alter the graph.
func TestGraphDigest(t *testing.T) {
	got := map[string]string{}
	record := func(key string, g *dug.Graph) {
		got[key] = fmt.Sprintf("nodes=%d triples=%d spliced=%d %s", g.NumNodes(), g.EdgeCount, g.SplicedTriples, graphDigest(g))
	}
	for name, src := range digestInputs(t) {
		prog := lowerSource(t, name, src)
		pre := prean.Run(prog)
		for _, bypass := range []bool{true, false} {
			record(fmt.Sprintf("%s/bypass=%v", name, bypass), dug.Build(prog, pre, dug.Options{Bypass: bypass}))
		}
		if !strings.HasPrefix(name, "gen-4000") {
			packs := pack.Build(prog, 0)
			_, src := octsem.Source(prog, pre, packs)
			record(name+"/octagon", dug.BuildFrom(src, dug.Options{Bypass: true}))
		}
	}
	// Entry marks: the graph the uninitialized-read checker runs on.
	b, err := os.ReadFile("../../testdata/corpus/uninit.c")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AnalyzeSource("uninit.c", string(b), core.Options{
		Domain: core.Interval, Mode: core.Sparse, Checkers: []check.Kind{check.UninitRead},
	})
	if err != nil {
		t.Fatal(err)
	}
	record("uninit/entrymarks", res.Graph())

	if *updateDigests {
		var sb strings.Builder
		for _, k := range sortedKeys(got) {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	for _, k := range sortedKeys(got) {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: not in %s (regenerate with -update)", k, digestFile)
		} else if w != got[k] {
			t.Errorf("%s:\n got  %s\n want %s", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: in %s but no longer built", k, digestFile)
		}
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("golden digests missing (regenerate with -update): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), " ")
		if ok {
			want[key] = rest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

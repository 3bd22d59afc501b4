// Property tests for the component hash and the snapshot codec: the hash
// must be a pure function of version-portable content (stable across
// re-lowering and map iteration order, sensitive to every hashed input), and
// the codec must round-trip snapshots losslessly and refuse schema drift.
package incr_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/incr"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
	"sparrow/internal/solver/sparse"
)

type pipeline struct {
	prog  *ir.Program
	pre   *prean.Result
	g     *dug.Graph
	namer *ir.StableNamer
}

func build(t testing.TB, src string) *pipeline {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	g := dug.Build(prog, pre, dug.Options{Bypass: true})
	return &pipeline{prog: prog, pre: pre, g: g, namer: ir.NewStableNamer(prog)}
}

func structHashes(t *testing.T, src string) []string {
	p := build(t, src)
	return incr.StructHashes(p.prog, p.pre, p.g, p.namer)
}

// hashBag renders a hash slice as an order-insensitive multiset key, so
// programs can be compared even when component numbering shifts.
func hashBag(hs []string) string {
	s := append([]string(nil), hs...)
	sort.Strings(s)
	return strings.Join(s, "\n")
}

const hashBase = `
int g; int buf[8];
int f(int x) { return x + 1; }
int k(int x) { return f(x) * 2; }
int main() {
	int i; int s; s = 0;
	for (i = 0; i < 8; i++) { buf[i] = k(s); s = buf[i]; }
	g = s;
	return 0;
}
`

// TestStructHashesStable: repeated lowering of the same source — fresh
// interner state, fresh map iteration order on every run — must produce the
// identical per-component hash sequence.
func TestStructHashesStable(t *testing.T) {
	srcs := []string{hashBase, cgen.Generate(cgen.Default(21, 300)), cgen.Generate(cgen.Fuzz(22, 120))}
	for si, src := range srcs {
		ref := structHashes(t, src)
		for rep := 0; rep < 3; rep++ {
			got := structHashes(t, src)
			if len(got) != len(ref) {
				t.Fatalf("src %d rep %d: %d components vs %d", si, rep, len(got), len(ref))
			}
			for c := range ref {
				if got[c] != ref[c] {
					t.Errorf("src %d rep %d: component %d hash drifted", si, rep, c)
				}
			}
		}
	}
}

// TestStructHashPerturbation: every class of hashed content must move the
// hash when perturbed — a constant in a command, statement insertion (which
// also shifts dependency edges), callee identity at a call, and a callee's
// recursion bit (summary-ness of its locals).
func TestStructHashPerturbation(t *testing.T) {
	ref := hashBag(structHashes(t, hashBase))
	variants := []struct {
		name string
		edit func(string) string
	}{
		{"command-constant", func(s string) string { return strings.Replace(s, "x + 1", "x + 2", 1) }},
		{"statement-insert", func(s string) string { return strings.Replace(s, "g = s;", "g = s; g = g + 1;", 1) }},
		{"callee-identity", func(s string) string { return strings.Replace(s, "return f(x) * 2;", "return k(x) * 2;", 1) }},
		{"recursion-bit", func(s string) string { return strings.Replace(s, "return x + 1;", "if (x > 0) { return f(x - 1); } return x;", 1) }},
	}
	for _, v := range variants {
		edited := v.edit(hashBase)
		if edited == hashBase {
			t.Fatalf("%s: edit was a no-op", v.name)
		}
		if hashBag(structHashes(t, edited)) == ref {
			t.Errorf("%s: hashes unchanged by the perturbation", v.name)
		}
	}
}

// TestStructHashLocality: an edit inside one function must leave the hashes
// of components that do not touch it unchanged — the property the
// incremental solver's hit rate rides on. The helper functions are
// call-graph-independent, so editing one leaves the others' components (and
// their stable names) intact.
func TestStructHashLocality(t *testing.T) {
	const base = `
int a; int b;
void f() { a = 1; }
void k() { b = 2; }
int main() { f(); k(); return 0; }
`
	edited := strings.Replace(base, "a = 1;", "a = 3;", 1)
	hb, he := structHashes(t, base), structHashes(t, edited)
	if len(hb) != len(he) {
		t.Fatalf("component count changed: %d vs %d", len(hb), len(he))
	}
	same, diff := 0, 0
	for c := range hb {
		if hb[c] == he[c] {
			same++
		} else {
			diff++
		}
	}
	if diff == 0 {
		t.Error("edit moved no component hash")
	}
	if same == 0 {
		t.Error("edit in one function invalidated every component hash")
	}
}

// solveInto runs the incremental solver over src into a fresh cache.
func solveInto(t testing.TB, src string) *incr.Cache {
	t.Helper()
	p := build(t, src)
	cache := incr.NewCache(0, 0)
	if _, _, err := sparse.AnalyzeIncremental(p.prog, p.pre, p.g, sparse.Options{}, cache); err != nil {
		t.Fatal(err)
	}
	return cache
}

// TestSnapshotRoundTrip: Encode is deterministic, and Decode∘Encode is the
// identity on the wire — the bytes of a re-encoded decoded snapshot match
// the original exactly, over handwritten and generated programs.
func TestSnapshotRoundTrip(t *testing.T) {
	srcs := []string{hashBase, cgen.Generate(cgen.Default(31, 300)), cgen.Generate(cgen.Fuzz(32, 120))}
	for si, src := range srcs {
		cache := solveInto(t, src)
		if cache.Len() == 0 {
			t.Fatalf("src %d: empty cache", si)
		}
		a, err := cache.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cache.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("src %d: Encode is not deterministic", si)
		}
		back, err := incr.Decode(a)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != cache.Len() ||
			back.WidenThreshold != cache.WidenThreshold ||
			back.EntryWidenDelay != cache.EntryWidenDelay {
			t.Errorf("src %d: decoded cache differs: len %d/%d config (%d,%d)/(%d,%d)",
				si, back.Len(), cache.Len(),
				back.WidenThreshold, back.EntryWidenDelay,
				cache.WidenThreshold, cache.EntryWidenDelay)
		}
		c, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, c) {
			t.Errorf("src %d: Decode∘Encode is not the identity on the wire", si)
		}
	}
}

// TestDecodeSchemaDrift: a snapshot from a different schema version is a
// refusal, never a silent partial load; corrupt bytes likewise.
func TestDecodeSchemaDrift(t *testing.T) {
	cache := solveInto(t, hashBase)
	data, err := cache.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["schema"] = json.RawMessage(fmt.Sprint(incr.SnapshotSchema + 1))
	drifted, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incr.Decode(drifted); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema drift: got %v, want a schema refusal", err)
	}
	if _, err := incr.Decode([]byte("{not json")); err == nil {
		t.Error("corrupt snapshot decoded without error")
	}
}

// TestChainNext pins the chain algebra: distinct inputs or distinct history
// prefixes give distinct keys, equal ones give equal keys, and the part
// framing cannot alias across the boundary.
func TestChainNext(t *testing.T) {
	if incr.ChainNext("a", "b") != incr.ChainNext("a", "b") {
		t.Error("ChainNext is not a function")
	}
	if incr.ChainNext("a", "b") == incr.ChainNext("a", "c") {
		t.Error("input collision")
	}
	if incr.ChainNext("a", "b") == incr.ChainNext("x", "b") {
		t.Error("history collision")
	}
	if incr.HashParts("ab", "c") == incr.HashParts("a", "bc") {
		t.Error("part framing aliased")
	}
}

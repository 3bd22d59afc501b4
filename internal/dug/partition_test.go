package dug

import (
	"testing"

	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/prean"
)

func buildGraph(t *testing.T, src string, opt Options) *Graph {
	t.Helper()
	f, err := parser.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	pre := prean.Run(prog)
	return Build(prog, pre, opt)
}

// checkPartition verifies the structural invariants the component solvers
// rely on: exact node cover (disjoint memories), topological component
// numbering along every dependency edge, sorted condensation neighbor
// lists, and island consistency.
func checkPartition(t *testing.T, g *Graph) *Partition {
	t.Helper()
	p := g.Partition()
	n := g.NumNodes()
	if len(p.Comp) != n || len(p.LocalIdx) != n {
		t.Fatalf("partition sized %d/%d for %d nodes", len(p.Comp), len(p.LocalIdx), n)
	}
	// Exact cover: every node in exactly one component, at its LocalIdx.
	seen := make([]bool, n)
	for c, nodes := range p.Nodes {
		if len(nodes) == 0 {
			t.Fatalf("component %d empty", c)
		}
		if len(nodes) > p.MaxComp {
			t.Errorf("component %d has %d nodes > MaxComp %d", c, len(nodes), p.MaxComp)
		}
		for i, nd := range nodes {
			if seen[nd] {
				t.Fatalf("node %d in two components", nd)
			}
			seen[nd] = true
			if p.Comp[nd] != int32(c) {
				t.Errorf("node %d: Comp=%d but listed in %d", nd, p.Comp[nd], c)
			}
			if p.LocalIdx[nd] != int32(i) {
				t.Errorf("node %d: LocalIdx=%d but at position %d", nd, p.LocalIdx[nd], i)
			}
		}
	}
	for nd, ok := range seen {
		if !ok {
			t.Errorf("node %d in no component", nd)
		}
	}
	// Every dependency edge respects the topological numbering, and every
	// cross-component edge appears in the condensation (same island).
	for u := 0; u < n; u++ {
		for _, l := range g.Defs[NodeID(u)] {
			for _, v := range g.Succs(NodeID(u), l) {
				cu, cv := p.Comp[u], p.Comp[v]
				if cu > cv {
					t.Errorf("edge %d→%d: components %d→%d against topological order", u, v, cu, cv)
				}
				if cu != cv {
					if !p.HasSucc(cu, cv) {
						t.Errorf("edge %d→%d: condensation lacks %d→%d", u, v, cu, cv)
					}
					if p.Island[cu] != p.Island[cv] {
						t.Errorf("edge %d→%d: crosses islands %d/%d", u, v, p.Island[cu], p.Island[cv])
					}
				}
			}
		}
	}
	// Preds mirrors Succs.
	for c, succs := range p.Succs {
		for _, s := range succs {
			found := false
			for _, q := range p.Preds[s] {
				if q == int32(c) {
					found = true
				}
			}
			if !found {
				t.Errorf("condensation edge %d→%d missing from Preds", c, s)
			}
		}
	}
	if p.NumIslands < 1 && p.NumComps() > 0 {
		t.Errorf("no islands over %d components", p.NumComps())
	}
	return p
}

func TestPartitionInvariants(t *testing.T) {
	srcs := map[string]string{
		"loopy": `
int g;
int main() {
	int i; int s; s = 0;
	for (i = 0; i < 10; i++) { s = s + i; }
	g = s;
	return 0;
}
`,
		"islands": `
int g; int h;
void f() { g = 1; }
void k() { h = 2; }
int main() { f(); k(); return 0; }
`,
		"recursion": `
int g;
int down(int n) { if (n <= 0) { return 0; } return down(n-1); }
int main() { g = down(9); return 0; }
`,
	}
	for name, src := range srcs {
		for _, bypass := range []bool{false, true} {
			g := buildGraph(t, src, Options{Bypass: bypass})
			p := checkPartition(t, g)
			t.Logf("%s bypass=%v: %d comps, max %d, %d islands",
				name, bypass, p.NumComps(), p.MaxComp, p.NumIslands)
		}
	}
}

func TestPartitionGenerated(t *testing.T) {
	for seed := uint64(7); seed < 10; seed++ {
		src := cgen.Generate(cgen.Default(seed, 300))
		g := buildGraph(t, src, Options{Bypass: true})
		checkPartition(t, g)
	}
}

// TestPartitionDeterministic checks that two independent builds of the same
// program partition identically (the component solvers' canonical schedule
// depends on it).
func TestPartitionDeterministic(t *testing.T) {
	src := cgen.Generate(cgen.Default(42, 300))
	a := checkPartition(t, buildGraph(t, src, Options{Bypass: true}))
	b := checkPartition(t, buildGraph(t, src, Options{Bypass: true}))
	if a.NumComps() != b.NumComps() || a.NumIslands != b.NumIslands || a.MaxComp != b.MaxComp {
		t.Fatalf("shape differs: %d/%d/%d vs %d/%d/%d",
			a.NumComps(), a.NumIslands, a.MaxComp, b.NumComps(), b.NumIslands, b.MaxComp)
	}
	for n := range a.Comp {
		if a.Comp[n] != b.Comp[n] || a.LocalIdx[n] != b.LocalIdx[n] {
			t.Fatalf("node %d: comp %d/%d localidx %d/%d",
				n, a.Comp[n], b.Comp[n], a.LocalIdx[n], b.LocalIdx[n])
		}
	}
}

// BenchmarkPartition times the component decomposition (SCCs, condensation
// DAG, islands) of the seeded gen-1000 program's def-use graph, which is
// built before the timer starts. It calls the uncached computation:
// Graph.Partition memoizes it.
func BenchmarkPartition(b *testing.B) {
	f, err := parser.Parse("gen-1000.c", cgen.Generate(cgen.Default(43, 1000)))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		b.Fatal(err)
	}
	g := Build(prog, prean.Run(prog), Options{Bypass: true})
	b.ReportAllocs()
	var p *Partition
	for b.Loop() {
		p = g.computePartition()
	}
	b.ReportMetric(float64(p.NumComps()), "components")
}

package deps

import (
	"math/rand"
	"testing"

	"sparrow/internal/dug"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

func stores() map[string]func() Store {
	return map[string]func() Store{
		"set": func() Store { return NewSetStore() },
		"bdd": func() Store { return NewBDDStore(1024, 256) },
	}
}

func TestAddContains(t *testing.T) {
	for name, mk := range stores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			s.Add(1, 10, 2)
			s.Add(1, 11, 2)
			s.Add(3, 10, 4)
			if !s.Contains(1, 10, 2) || !s.Contains(1, 11, 2) || !s.Contains(3, 10, 4) {
				t.Error("missing added triples")
			}
			if s.Contains(2, 10, 1) || s.Contains(1, 12, 2) || s.Contains(1, 10, 4) {
				t.Error("contains phantom triples")
			}
			if s.Triples() != 3 {
				t.Errorf("Triples = %d want 3", s.Triples())
			}
			// Duplicate adds are idempotent.
			s.Add(1, 10, 2)
			if s.Triples() != 3 {
				t.Errorf("duplicate add changed count: %d", s.Triples())
			}
		})
	}
}

func TestRandomAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	set := NewSetStore()
	bddS := NewBDDStore(512, 128)
	type triple struct {
		f, t dug.NodeID
		l    ir.LocID
	}
	var added []triple
	for i := 0; i < 2000; i++ {
		tr := triple{f: dug.NodeID(r.Intn(512)), t: dug.NodeID(r.Intn(512)), l: ir.LocID(r.Intn(128))}
		set.Add(tr.f, tr.l, tr.t)
		bddS.Add(tr.f, tr.l, tr.t)
		added = append(added, tr)
	}
	if set.Triples() != bddS.Triples() {
		t.Fatalf("triple counts differ: set=%d bdd=%d", set.Triples(), bddS.Triples())
	}
	if int(bddS.SatCount()) != bddS.Triples() {
		t.Errorf("BDD SatCount %v != Triples %d", bddS.SatCount(), bddS.Triples())
	}
	for _, tr := range added {
		if !bddS.Contains(tr.f, tr.l, tr.t) {
			t.Fatalf("bdd lost triple %+v", tr)
		}
	}
	// Negative probes.
	for i := 0; i < 2000; i++ {
		tr := triple{f: dug.NodeID(r.Intn(512)), t: dug.NodeID(r.Intn(512)), l: ir.LocID(r.Intn(128))}
		if set.Contains(tr.f, tr.l, tr.t) != bddS.Contains(tr.f, tr.l, tr.t) {
			t.Fatalf("stores disagree on %+v", tr)
		}
	}
}

func TestFromGraph(t *testing.T) {
	src := `
int g; int h;
int helper(int x) { g = g + x; return g; }
int main() {
	int i;
	for (i = 0; i < 4; i++) { h = helper(i); }
	return h;
}
`
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
	set := FromGraph(g, NewSetStore()).(*SetStore)
	bddS := FromGraph(g, NewBDDStore(g.NumNodes(), prog.Locs.Len())).(*BDDStore)
	if set.Triples() != g.EdgeCount || bddS.Triples() != g.EdgeCount {
		t.Errorf("triples: set=%d bdd=%d graph=%d", set.Triples(), bddS.Triples(), g.EdgeCount)
	}
	// Every graph edge is in both stores.
	g.Range(func(from dug.NodeID, l ir.LocID, to dug.NodeID) bool {
		if !set.Contains(from, l, to) || !bddS.Contains(from, l, to) {
			t.Errorf("missing edge %d -(%d)-> %d", from, l, to)
		}
		return true
	})
	if bddS.EstimatedBytes() <= 0 || set.EstimatedBytes() <= 0 {
		t.Error("memory estimates must be positive")
	}
}

// TestRedundancyCompression: highly redundant relations (shared prefixes and
// suffixes) should give BDDs a large advantage, the paper's core memory
// observation.
func TestRedundancyCompression(t *testing.T) {
	set := NewSetStore()
	bddS := NewBDDStore(4096, 64)
	// Many sources × many targets over the same few locations: dense
	// bipartite blocks compress superbly in a BDD.
	for f := 0; f < 128; f++ {
		for to := 0; to < 64; to++ {
			for l := 0; l < 4; l++ {
				set.Add(dug.NodeID(f), ir.LocID(l), dug.NodeID(2048+to))
				bddS.Add(dug.NodeID(f), ir.LocID(l), dug.NodeID(2048+to))
			}
		}
	}
	if bddS.EstimatedBytes() >= set.EstimatedBytes()/10 {
		t.Errorf("BDD estimate %d not ≪ set estimate %d on redundant relation",
			bddS.EstimatedBytes(), set.EstimatedBytes())
	}
}

// TestAddProductMatchesAdd: inserting a block of triples as one product
// must build the relation per-triple insertion builds — canonical ROBDDs
// make it the same diagram — and count the same triples, also when the
// block overlaps triples already stored.
func TestAddProductMatchesAdd(t *testing.T) {
	from := []dug.NodeID{0, 3, 5, 6, 7, 40}
	locs := []ir.LocID{1, 2, 9, 17}
	to := []dug.NodeID{8, 24, 40, 56, 511}
	product, single := NewBDDStore(512, 32), NewBDDStore(512, 32)
	for _, s := range []*BDDStore{product, single} {
		s.Add(3, 9, 24) // inside the block
		s.Add(2, 9, 24) // outside it
	}
	product.AddProduct(from, locs, to)
	for _, f := range from {
		for _, l := range locs {
			for _, to := range to {
				single.Add(f, l, to)
			}
		}
	}
	if product.Triples() != single.Triples() || product.Triples() != 1+len(from)*len(locs)*len(to) {
		t.Errorf("Triples: product %d, per triple %d", product.Triples(), single.Triples())
	}
	if product.NodeCount() != single.NodeCount() {
		t.Errorf("NodeCount: product %d, per triple %d", product.NodeCount(), single.NodeCount())
	}
	if product.SatCount() != single.SatCount() {
		t.Errorf("SatCount: product %v, per triple %v", product.SatCount(), single.SatCount())
	}
	if !product.Contains(40, 17, 511) || !product.Contains(2, 9, 24) || product.Contains(1, 1, 8) || product.Contains(0, 3, 8) {
		t.Error("product store membership wrong")
	}
}

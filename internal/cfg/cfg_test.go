package cfg

import (
	"testing"

	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

func setup(t *testing.T, src string) (*ir.Program, *prean.Result, *Info) {
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
	return prog, pre, Compute(prog, pre.CG, pre.CalleesOf)
}

func TestRPOStartsAtEntry(t *testing.T) {
	prog, _, info := setup(t, `
int main() {
	int i;
	for (i = 0; i < 3; i++) { }
	return i;
}
`)
	main := prog.ProcByName("main")
	order := info.ProcRPO(main.ID)
	if len(order) == 0 || order[0] != main.Entry {
		t.Fatalf("RPO does not start at entry: %v", order)
	}
	seen := map[ir.PointID]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatalf("RPO repeats %d", id)
		}
		seen[id] = true
	}
}

func TestLoopHeadsFound(t *testing.T) {
	prog, _, info := setup(t, `
int main() {
	int i; int j;
	for (i = 0; i < 3; i++) {
		for (j = 0; j < 2; j++) { }
	}
	while (i > 0) { i--; }
	return 0;
}
`)
	main := prog.ProcByName("main")
	var heads []ir.PointID
	for _, id := range main.Points {
		if info.LoopHead[id] {
			heads = append(heads, id)
		}
	}
	if len(heads) != 3 {
		t.Errorf("found %d loop heads want 3: %v", len(heads), heads)
	}
	for _, h := range heads {
		if !info.Widen[h] {
			t.Errorf("loop head %d not a widening point", h)
		}
	}
}

func TestRecursiveEntryWidens(t *testing.T) {
	prog, _, info := setup(t, `
int f(int n) { if (n <= 0) { return 0; } return f(n-1); }
int main() { return f(5); }
`)
	f := prog.ProcByName("f")
	if !info.Widen[f.Entry] {
		t.Error("recursive entry not a widening point")
	}
	// The recursive call's return site must widen too (exit→retbind cycles).
	widenedRetbind := false
	for _, cp := range f.Calls {
		for _, s := range prog.Point(cp).Succs {
			if info.Widen[s] {
				widenedRetbind = true
			}
		}
	}
	if !widenedRetbind {
		t.Error("recursive return site not a widening point")
	}
	if info.Widen[prog.ProcByName("main").Entry] {
		t.Error("non-recursive main entry needlessly widened")
	}
}

func TestPrioCalleesFirst(t *testing.T) {
	prog, _, info := setup(t, `
int leaf() { return 1; }
int mid() { return leaf(); }
int main() { return mid(); }
`)
	leaf := prog.ProcByName("leaf")
	mid := prog.ProcByName("mid")
	main := prog.ProcByName("main")
	if !(info.Prio[leaf.Entry] < info.Prio[mid.Entry] && info.Prio[mid.Entry] < info.Prio[main.Entry]) {
		t.Errorf("priorities not callee-first: leaf=%d mid=%d main=%d",
			info.Prio[leaf.Entry], info.Prio[mid.Entry], info.Prio[main.Entry])
	}
	rpo := info.ProcRPO(main.ID)
	if len(rpo) == 0 || rpo[0] != main.Entry {
		t.Error("cached RPO wrong")
	}
}

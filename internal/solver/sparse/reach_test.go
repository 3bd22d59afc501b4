package sparse

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

// TestReachTargets checks the control-reachability targets on a corpus
// program with an indirect call: the call through op reaches the entries
// of its three handlers (not its CFG successor), each handler's exit
// reaches the return sites of the calls that reach its entry, and a plain
// assignment reaches its CFG successors.
func TestReachTargets(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "corpus", "fpdispatch.c"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.Parse("fpdispatch.c", string(src))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.File(f)
	if err != nil {
		t.Fatal(err)
	}
	pre := prean.Run(prog)
	targets := func(pt *ir.Point) []ir.PointID {
		var out []ir.PointID
		reachTargets(prog, pre, pt, func(t ir.PointID) { out = append(out, t) })
		return out
	}
	handlers := []string{"h_add", "h_sub", "h_store"}
	var indirect *ir.Point
	for _, cp := range prog.ProcByName("main").Calls {
		if _, direct := prog.Point(cp).Cmd.(ir.Call).F.(ir.FuncAddr); !direct {
			indirect = prog.Point(cp)
		}
	}
	if indirect == nil {
		t.Fatal("no indirect call in main")
	}
	var want []ir.PointID
	for _, h := range handlers {
		want = append(want, prog.ProcByName(h).Entry)
	}
	got := targets(indirect)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("indirect call reaches %v want the handler entries %v", got, want)
	}
	for _, h := range handlers {
		pr := prog.ProcByName(h)
		rets := targets(prog.Point(pr.Exit))
		if len(rets) == 0 {
			t.Errorf("%s: exit reaches no return site", h)
		}
		for _, rs := range rets {
			rb, ok := prog.Point(rs).Cmd.(ir.RetBind)
			if !ok {
				t.Errorf("%s: exit reaches %T point %d, want a return site", h, prog.Point(rs).Cmd, rs)
				continue
			}
			if !slices.Contains(targets(prog.Point(rb.CallPt)), pr.Entry) {
				t.Errorf("%s: exit reaches return site %d whose call does not reach the entry", h, rs)
			}
		}
	}
	for _, pt := range prog.Points {
		if _, ok := pt.Cmd.(ir.Set); ok {
			if got := targets(pt); !slices.Equal(got, pt.Succs) {
				t.Errorf("assignment %d reaches %v want its successors %v", pt.ID, got, pt.Succs)
			}
		}
	}
}

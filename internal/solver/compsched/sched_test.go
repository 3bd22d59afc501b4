package compsched

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

// diamond is a hand-built scheduling DAG over five components:
//
//	0 → 2 → 4
//	0 → 3 → 4
//	1 → 3
func diamond() *Sched {
	succs := [][]int32{{2, 3}, {3}, {4}, {4}, nil}
	return &Sched{Succs: succs, pending: make([]bool, len(succs))}
}

// wave runs one wave of s with work initially at the components in seeds;
// running a component consumes its work and gives work to gives[c]. It
// returns the components in the order they ran.
func wave(s *Sched, seeds []int32, gives map[int32][]int32) []int32 {
	work := make([]bool, len(s.Succs))
	for _, c := range seeds {
		work[c] = true
	}
	var ran []int32
	s.Wave(func(c int32) bool { return work[c] }, func(c int32) {
		ran = append(ran, c)
		work[c] = false
		for _, d := range gives[c] {
			work[d] = true
		}
	})
	return ran
}

func TestWaveAscendingExactlyWorked(t *testing.T) {
	s := diamond()
	// Seeded out of order; components 1 and 2 have no work and must not run.
	if ran := wave(s, []int32{4, 0, 3}, nil); !slices.Equal(ran, []int32{0, 3, 4}) {
		t.Errorf("ran %v want [0 3 4]", ran)
	}
	if ran := wave(s, nil, nil); len(ran) != 0 {
		t.Errorf("empty wave ran %v", ran)
	}
}

func TestWaveRunsEachOnce(t *testing.T) {
	s := diamond()
	// 0 and 1 both give work to 3, and 2 and 3 both give work to 4: each
	// still runs once, after all of its predecessors with work.
	gives := map[int32][]int32{0: {2, 3}, 1: {3}, 2: {4}, 3: {4}}
	if ran := wave(s, []int32{0, 1}, gives); !slices.Equal(ran, []int32{0, 1, 2, 3, 4}) {
		t.Errorf("ran %v want [0 1 2 3 4]", ran)
	}
	// The scratch heap is empty again: a second wave starts clean.
	if ran := wave(s, []int32{3}, gives); !slices.Equal(ran, []int32{3, 4}) {
		t.Errorf("second wave ran %v want [3 4]", ran)
	}
}

func TestWaveRunsGainedWorkSameWave(t *testing.T) {
	s := diamond()
	// Only 1 is seeded; 3 gains work from it and 4 from 3, in the same wave.
	gives := map[int32][]int32{1: {3}, 3: {4}}
	if ran := wave(s, []int32{1}, gives); !slices.Equal(ran, []int32{1, 3, 4}) {
		t.Errorf("ran %v want [1 3 4]", ran)
	}
}

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
		ReachTargets(prog, pre, pt, func(t ir.PointID) { out = append(out, t) })
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

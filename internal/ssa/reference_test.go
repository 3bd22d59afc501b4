package ssa

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sparrow/internal/cfg"
	"sparrow/internal/cgen"
	"sparrow/internal/frontend/lower"
	"sparrow/internal/frontend/parser"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
)

// This file keeps the earlier map-based orderings and dominator computation
// as references: refRPO and refLoopHeads each ran their own depth-first
// search, and refCompute a third one with a map from point to RPO index.
// cfg.Compute now derives the order and the loop heads from one walk, and
// Dom.Compute takes that order with a dense index.

// refRPO returns the points of proc reachable from its entry in reverse
// postorder.
func refRPO(prog *ir.Program, proc *ir.Proc) []ir.PointID {
	var post []ir.PointID
	visited := map[ir.PointID]bool{}
	type frame struct {
		id ir.PointID
		si int
	}
	stack := []frame{{id: proc.Entry}}
	visited[proc.Entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := prog.Point(f.id).Succs
		if f.si < len(succs) {
			s := succs[f.si]
			f.si++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{id: s})
			}
			continue
		}
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}
	// reverse
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// refLoopHeads returns the targets of back edges in proc's CFG (edges u→v
// where v is an ancestor of u in the DFS tree).
func refLoopHeads(prog *ir.Program, proc *ir.Proc) map[ir.PointID]bool {
	heads := map[ir.PointID]bool{}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[ir.PointID]int{}
	type frame struct {
		id ir.PointID
		si int
	}
	stack := []frame{{id: proc.Entry}}
	color[proc.Entry] = gray
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := prog.Point(f.id).Succs
		if f.si < len(succs) {
			s := succs[f.si]
			f.si++
			switch color[s] {
			case white:
				color[s] = gray
				stack = append(stack, frame{id: s})
			case gray:
				heads[s] = true
			}
			continue
		}
		color[f.id] = black
		stack = stack[:len(stack)-1]
	}
	return heads
}

// refDom is the reference dominance information of one procedure.
type refDom struct {
	Order    []ir.PointID
	Index    map[ir.PointID]int
	Idom     []int
	Children [][]int
	Frontier [][]int
}

// refCompute builds reference dominance information for proc within prog.
func refCompute(prog *ir.Program, proc *ir.Proc) *refDom {
	d := &refDom{}
	d.Order = refRPO(prog, proc)
	d.Index = make(map[ir.PointID]int, len(d.Order))
	for i, id := range d.Order {
		d.Index[id] = i
	}
	n := len(d.Order)
	preds := make([][]int, n)
	for i, id := range d.Order {
		for _, p := range prog.Point(id).Preds {
			if pi, ok := d.Index[p]; ok {
				preds[i] = append(preds[i], pi)
			}
		}
	}
	d.computeIdom(preds)
	d.Children = make([][]int, n)
	for i := 1; i < n; i++ {
		d.Children[d.Idom[i]] = append(d.Children[d.Idom[i]], i)
	}
	d.computeFrontier(preds)
	return d
}

func (d *refDom) computeIdom(preds [][]int) {
	n := len(d.Order)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			newIdom := -1
			for _, p := range preds[i] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
	d.Idom = idom
}

func (d *refDom) computeFrontier(preds [][]int) {
	n := len(d.Order)
	d.Frontier = make([][]int, n)
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	for i := 0; i < n; i++ {
		if len(preds[i]) < 2 {
			continue
		}
		for _, p := range preds[i] {
			for r := p; r != d.Idom[i] && seen[r] != i; r = d.Idom[r] {
				d.Frontier[r] = append(d.Frontier[r], i)
				seen[r] = i
			}
		}
	}
}

// referencePrograms returns the corpus files and 50 cgen.Fuzz programs.
func referencePrograms(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/corpus/*.c")
	if err != nil || len(paths) != 14 {
		t.Fatalf("corpus glob: %d files, %v", len(paths), err)
	}
	srcs := map[string]string{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(b)
	}
	for seed := uint64(1); seed <= 50; seed++ {
		srcs[fmt.Sprintf("fuzz-%d", seed)] = cgen.Generate(cgen.Fuzz(seed, 300))
	}
	return srcs
}

// TestSingleDFSMatchesReference checks that the one depth-first walk of
// cfg.Compute yields the reference RPO and loop heads, and that Dom.Compute
// over that order yields the reference immediate dominators and dominance
// frontiers, on every procedure of the corpus and of 50 fuzz programs.
func TestSingleDFSMatchesReference(t *testing.T) {
	var d Dom
	for name, src := range referencePrograms(t) {
		f, err := parser.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		prog, err := lower.File(f)
		if err != nil {
			t.Fatalf("%s: lower: %v", name, err)
		}
		pre := prean.Run(prog)
		info := cfg.Compute(prog, pre.CG, pre.CalleesOf)
		index := make([]int32, len(prog.Points))
		for _, pr := range prog.Procs {
			if len(pr.Points) == 0 || pr.Entry == ir.None {
				continue
			}
			where := fmt.Sprintf("%s/%s", name, pr.Name)
			order := info.ProcRPO(pr.ID)
			ref := refCompute(prog, pr)
			if !slices.Equal(order, ref.Order) {
				t.Fatalf("%s: RPO %v, reference %v", where, order, ref.Order)
			}
			heads := refLoopHeads(prog, pr)
			for _, id := range pr.Points {
				if info.LoopHead[id] != heads[id] {
					t.Fatalf("%s: loop head of point %d is %v, reference %v", where, id, info.LoopHead[id], heads[id])
				}
			}
			for i, id := range order {
				index[id] = int32(i + 1)
			}
			d.Compute(prog, order, index)
			for i := range order {
				if int(d.Idom[i]) != ref.Idom[i] {
					t.Fatalf("%s: idom of RPO index %d is %d, reference %d", where, i, d.Idom[i], ref.Idom[i])
				}
				if got := toInts(d.Children(i)); !slices.Equal(got, ref.Children[i]) {
					t.Fatalf("%s: children of RPO index %d are %v, reference %v", where, i, got, ref.Children[i])
				}
				if got := toInts(d.Frontier(i)); !slices.Equal(got, ref.Frontier[i]) {
					t.Fatalf("%s: frontier of RPO index %d is %v, reference %v", where, i, got, ref.Frontier[i])
				}
			}
			for _, id := range order {
				index[id] = 0
			}
		}
	}
}

func toInts(s []int32) []int {
	if len(s) == 0 {
		return nil
	}
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

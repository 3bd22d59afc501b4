package compsched

import (
	"slices"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/worklist"
)

// Driver is the domain-independent half of the sparse solvers (interval and
// octagon): control reachability, the priority worklist, the stop check, and
// the two schedules — the global worklist (Global) and the component waves
// (Components). A domain keeps its value state and one fire step; fire
// reports work back through MarkSuccs (or Mark) and Schedule, and the driver
// decides where it goes.
//
// A point fires only once reachable, so the domains gate their transfers on
// Reached: the dense solvers prune CFG-unreachable code, and the sparse
// solvers keep their precision by tracking the same reachability.
//
// In the component schedule, marks that land in a scheduling successor seed
// it immediately, while backward marks — loop back edges and recursive
// returns — are buffered and applied at the end of the wave, where they are
// additionally closed transitively through non-assume points (applyMarks).
// Waves repeat until no seeds remain: reachability is monotone over a
// finite point set, so the waves terminate.
type Driver struct {
	// Reached[pt] is control reachability per point.
	Reached []bool
	// Steps counts node firings, including the one a stop check refused.
	Steps int
	// Rounds counts the waves of Components (0 for Global).
	Rounds int
	// TimedOut reports a run the stop check ended early.
	TimedOut bool

	// OnSeed, when non-nil, is called for every point t marked reachable
	// from outside its component c, which then holds t as a seed: by the
	// reachability closure between waves, or by a mark into a scheduling
	// successor.
	OnSeed func(c int32, t ir.PointID)
	// RunComp, when non-nil, runs component c with its seed bucket in place
	// of RunLive; it runs the component live by calling RunLive itself.
	RunComp func(c int32, seeds []int32)

	prog *ir.Program
	pre  *prean.Result
	g    *dug.Graph
	lim  rt.Limits
	fire func(dug.NodeID)
	wl   *worklist.Worklist
	mark func(ir.PointID) // Mark as a func value, bound once so MarkSuccs allocates nothing

	// The component schedule; p is nil in the global schedule. seeds[c] is
	// component c's bucket of nodes to enqueue on its next run; deferred
	// buffers the backward reach marks of the current wave.
	p        *dug.Partition
	sched    *Sched
	seeds    [][]int32
	deferred []ir.PointID
	comp     int32 // the running component
}

// NewDriver returns a driver over g that fires nodes with fire and stops
// when lim says so.
func NewDriver(prog *ir.Program, pre *prean.Result, g *dug.Graph, lim rt.Limits, fire func(dug.NodeID)) *Driver {
	d := &Driver{
		Reached: make([]bool, g.PointCount),
		prog:    prog,
		pre:     pre,
		g:       g,
		lim:     lim,
		fire:    fire,
		wl:      worklist.New(g.NumNodes(), g.Prio),
	}
	d.mark = d.Mark
	return d
}

// Global solves with one priority worklist over the whole graph, starting
// from main's entry.
func (d *Driver) Global() {
	root := d.prog.ProcByID(d.prog.Main).Entry
	d.Reached[root] = true
	d.RunLive([]int32{int32(root)})
}

// Components solves over the graph's component partition in the sequential
// wave schedule: each wave runs the components with work in ascending
// (topological) order (Sched.Wave), so every component starts only after
// every run that can write into it this wave has finished.
func (d *Driver) Components() {
	d.p = d.g.Partition()
	d.sched = BuildSched(d.prog, d.pre, d.p)
	d.seeds = make([][]int32, d.p.NumComps())
	d.applyMarks([]ir.PointID{d.prog.ProcByID(d.prog.Main).Entry})
	hasWork := func(c int32) bool { return len(d.seeds[c]) > 0 }
	for d.anySeeds() && !d.TimedOut {
		d.Rounds++
		d.sched.Wave(hasWork, d.runComponent)
		slices.Sort(d.deferred)
		d.applyMarks(d.deferred)
		d.deferred = d.deferred[:0]
	}
}

func (d *Driver) anySeeds() bool {
	for _, s := range d.seeds {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// applyMarks sets the given points reachable, seeds their components, and
// transitively closes reachability through non-assume points: every command
// except Assume propagates control reachability unconditionally once it
// fires (the transfers fail only on refuted assumes), so marking their
// control successors eagerly reaches the same final set the firing would —
// without spending a wave per control step. Assumes stop the closure: their
// propagation waits for the value fixpoint to decide refutation. The closure
// order is deterministic given a deterministically-ordered queue.
func (d *Driver) applyMarks(queue []ir.PointID) {
	q := append([]ir.PointID(nil), queue...)
	push := func(t ir.PointID) {
		if !d.Reached[t] {
			q = append(q, t)
		}
	}
	for i := 0; i < len(q); i++ {
		t := q[i]
		if d.Reached[t] {
			continue
		}
		d.seedPoint(d.p.Comp[t], t)
		pt := d.prog.Point(t)
		if _, isAssume := pt.Cmd.(ir.Assume); !isAssume {
			ReachTargets(d.prog, d.pre, pt, push)
		}
	}
}

// seedPoint marks t reachable and seeds it into component c, which has not
// run yet this wave.
func (d *Driver) seedPoint(c int32, t ir.PointID) {
	d.Reached[t] = true
	d.seeds[c] = append(d.seeds[c], int32(t))
	if d.OnSeed != nil {
		d.OnSeed(c, t)
	}
}

// runComponent takes component c's seed bucket and runs it, through
// RunComp when set.
func (d *Driver) runComponent(c int32) {
	d.comp = c
	seeds := d.seeds[c]
	d.seeds[c] = nil
	if d.RunComp != nil {
		d.RunComp(c, seeds)
		return
	}
	if len(seeds) == 0 || d.TimedOut {
		return
	}
	d.RunLive(seeds)
}

// RunLive runs the priority-worklist transfer loop from the given seeds:
// over the whole graph in the global schedule, over the running component's
// nodes in the component schedule. Seeds are sorted before enqueueing so the
// local schedule is canonical. Once the stop check fires, the worklist
// drains without firing, leaving it ready for the next component.
func (d *Driver) RunLive(seeds []int32) {
	slices.Sort(seeds)
	for _, s := range seeds {
		d.wl.Add(int(s))
	}
	local := 0
	for {
		id, ok := d.wl.Take()
		if !ok {
			return
		}
		if d.TimedOut {
			continue
		}
		local++
		d.Steps++
		if d.lim.Stop(d.Steps, local) {
			d.TimedOut = true
			continue
		}
		d.fire(dug.NodeID(id))
	}
}

// MarkSuccs marks every control-reachability target of a point that fired.
func (d *Driver) MarkSuccs(pt *ir.Point) {
	ReachTargets(d.prog, d.pre, pt, d.mark)
}

// Mark records reachability of t. In the global schedule, or inside the
// running component, it feeds the worklist; in a scheduling-DAG successor
// (which has not run yet this wave) it seeds that component; anywhere else —
// a backward reach edge — it is deferred to the end of the wave.
func (d *Driver) Mark(t ir.PointID) {
	if d.p == nil || d.p.Comp[t] == d.comp {
		if !d.Reached[t] {
			d.Reached[t] = true
			d.wl.Add(int(t))
		}
		return
	}
	if ct := d.p.Comp[t]; !d.sched.HasSucc(d.comp, ct) {
		d.deferred = append(d.deferred, t)
	} else if !d.Reached[t] {
		d.seedPoint(ct, t)
	}
}

// Schedule enqueues node n after its input grew and reports whether n went
// to the running worklist. Dependency edges that leave a component are
// condensation edges by construction, so an outside target is a direct DAG
// successor that has not run yet this wave: it is seeded instead, and
// Schedule returns false.
func (d *Driver) Schedule(n dug.NodeID) bool {
	if d.p == nil || d.p.Comp[n] == d.comp {
		d.wl.Add(int(n))
		return true
	}
	c := d.p.Comp[n]
	d.seeds[c] = append(d.seeds[c], int32(n))
	return false
}

// Component sparse solver: the def-use graph's SCC condensation is a DAG of
// components (dug.Partition), and values flow only along dependency edges, so
// a component's fixpoint depends on nothing but its condensation
// predecessors. The solver runs the existing priority-worklist transfer loop
// one component at a time, in the canonical wave schedule of
// internal/solver/compsched: each wave runs the components with work in
// ascending (topological) order, so every component starts only after every
// run that can write into it this wave has finished.
//
// Control reachability is the one signal that does not follow dependency
// edges (call→entry, exit→retsite, and plain CFG successors). Marks that land
// in a scheduling successor seed it immediately, while backward marks — loop
// back edges and recursive returns — are buffered and applied at the end of
// the wave, where they are additionally closed transitively through
// non-assume points (only ir.Assume can block reachability, so the closure
// is exact). Waves repeat until no deferred marks remain (reachability is
// monotone over a finite point set, so the waves terminate). The incremental
// solver (incr.go) is this driver with a memo attached.
package sparse

import (
	"slices"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
	rt "sparrow/internal/runtime"
	"sparrow/internal/solver/compsched"
)

// AnalyzeComponents runs the sparse analysis over the def-use graph's
// component partition in the sequential wave schedule. Result.Rounds counts
// the waves.
func AnalyzeComponents(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options) *Result {
	return newCDriver(prog, pre, g, opt, nil).run()
}

// cdriver is the state of one component solve: the slot store plus the
// wave schedule's seed buckets and deferred marks. With a memo it is the
// incremental solver, which brackets every component run with the memo
// protocol.
type cdriver struct {
	*store
	p     *dug.Partition
	sched *compsched.Sched

	// seeds[c] is component c's bucket of nodes to enqueue on its next run;
	// deferred buffers the backward reach marks of the current wave.
	seeds    [][]int32
	deferred []ir.PointID

	comp     int32 // the running component
	steps    int
	timedOut bool
	rounds   int

	memo *memo
}

func newCDriver(prog *ir.Program, pre *prean.Result, g *dug.Graph, opt Options, m *memo) *cdriver {
	p := g.Partition()
	d := &cdriver{
		store: newStore(prog, pre, g, opt),
		p:     p,
		sched: compsched.BuildSched(prog, pre, p),
		seeds: make([][]int32, p.NumComps()),
		memo:  m,
	}
	d.store.schedule = d.schedule
	d.store.mark = d.mark
	return d
}

// run solves in waves until no deferred marks remain and returns the
// materialized result.
func (d *cdriver) run() *Result {
	d.applyMarks([]ir.PointID{d.prog.ProcByID(d.prog.Main).Entry})
	hasWork := func(c int32) bool { return len(d.seeds[c]) > 0 }
	for d.anySeeds() && !d.timedOut {
		d.rounds++
		d.sched.Wave(hasWork, d.runComponent)
		slices.Sort(d.deferred)
		d.applyMarks(d.deferred)
		d.deferred = d.deferred[:0]
	}
	res := &Result{Steps: d.steps, Rounds: d.rounds, TimedOut: d.timedOut}
	d.finish(res)
	return res
}

// applyMarks sets the given points reachable, seeds their components, and
// transitively closes reachability through non-assume points: every command
// except Assume propagates control reachability unconditionally once it
// fires (sem.Transfer fails only on refuted assumes), so marking their
// control successors eagerly reaches the same final set the firing would —
// without spending a wave per control step. Assumes stop the closure: their
// propagation waits for the value fixpoint to decide refutation. The closure
// order is deterministic given a deterministically-ordered queue. Flips made
// here arrive outside any component run, so they are external inputs of the
// flipped point's component.
func (d *cdriver) applyMarks(queue []ir.PointID) {
	q := append([]ir.PointID(nil), queue...)
	push := func(t ir.PointID) {
		if !d.reached[t] {
			q = append(q, t)
		}
	}
	for i := 0; i < len(q); i++ {
		t := q[i]
		if d.reached[t] {
			continue
		}
		d.seedPoint(d.p.Comp[t], t)
		pt := d.prog.Point(t)
		if _, isAssume := pt.Cmd.(ir.Assume); !isAssume {
			compsched.ReachTargets(d.prog, d.pre, pt, push)
		}
	}
}

// seedPoint marks t reachable and seeds it into component c, which has not
// run yet this wave.
func (d *cdriver) seedPoint(c int32, t ir.PointID) {
	d.reached[t] = true
	d.seeds[c] = append(d.seeds[c], int32(t))
	if d.memo != nil {
		d.memo.pendingReach[c] = append(d.memo.pendingReach[c], t)
	}
}

func (d *cdriver) anySeeds() bool {
	for _, s := range d.seeds {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// runComponent runs component c: with a memo, through the memo protocol
// (incr.go), else live.
func (d *cdriver) runComponent(c int32) {
	if d.memo != nil {
		d.memoRun(c)
		return
	}
	d.comp = c
	seeds := d.seeds[c]
	d.seeds[c] = nil
	if len(seeds) == 0 || d.timedOut {
		return
	}
	d.runLive(seeds)
}

// runLive runs the priority-worklist transfer loop over the running
// component's nodes. Seeds are sorted before enqueueing so the local
// schedule is canonical; the worklist drains completely, leaving it ready
// for reuse. An incremental run never times out: a budget breach aborts
// (rt.Abort) before the run's transcript is recorded.
func (d *cdriver) runLive(seeds []int32) {
	slices.Sort(seeds)
	for _, s := range seeds {
		d.wl.Add(int(s))
	}
	local := 0
	for {
		id, ok := d.wl.Take()
		if !ok {
			break
		}
		if d.timedOut {
			continue // drain so the worklist is clean for the next component
		}
		local++
		d.steps++
		if d.memo != nil {
			if d.opt.Budget != nil && local%256 == 0 {
				d.opt.Budget.Checkpoint(rt.PhaseIncr)
			}
		} else if d.stop(d.steps, local) {
			d.timedOut = true
			continue
		}
		d.fire(dug.NodeID(id))
	}
}

// mark records reachability of t. Inside the running component it feeds the
// local worklist; in a scheduling-DAG successor (which has not run yet this
// wave) it seeds that component; anywhere else — a backward reach edge — it
// is deferred to the end of the wave.
func (d *cdriver) mark(t ir.PointID) {
	ct := d.p.Comp[t]
	switch {
	case ct == d.comp:
		if !d.reached[t] {
			d.reached[t] = true
			d.wl.Add(int(t))
		}
	case d.sched.HasSucc(d.comp, ct):
		if !d.reached[t] {
			d.seedPoint(ct, t)
		}
	default:
		d.deferred = append(d.deferred, t)
	}
}

// schedule enqueues node n after its Acc slot grew. Dependency edges that
// leave the component are condensation edges by construction, so an outside
// target is a direct DAG successor that has not run yet this wave: it is
// seeded (and, incrementally, the slot becomes an external input of its
// component).
func (d *cdriver) schedule(n dug.NodeID, slot int32) {
	c := d.p.Comp[n]
	if c == d.comp {
		if d.rec != nil {
			d.rec.accs = append(d.rec.accs, slotRef{n, slot})
		}
		d.wl.Add(int(n))
		return
	}
	d.seeds[c] = append(d.seeds[c], int32(n))
	if d.memo != nil {
		d.memo.pendingIn[c] = append(d.memo.pendingIn[c], slotRef{n, slot})
	}
}

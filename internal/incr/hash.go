// Component content hashing. A memo entry's key is the chained digest
//
//	key(c, run k) = H(chain_{k-1}(c) ∥ inputHash_k(c))
//	chain_0(c)    = structHash(c)
//	chain_k(c)    = key(c, run k)
//
// so a key pins down (a) the component's complete internal structure, (b)
// the inputs of every previous run — and therefore, by induction over the
// deterministic sequential schedule, the component's entire internal state —
// and (c) the current run's inputs. Two occurrences of the same key denote
// identical runs, which is what makes replaying the recorded transcript
// exact, and also what makes the table content-addressed: structurally
// identical components at equal points of their input history share entries.
//
// The structure hash covers everything the component's internal execution
// can observe: the per-node commands (stable-rendered), the callee
// signatures at call/return-bind points (callee order matters — formals bind
// against the accumulating memory), the summary-ness of every D̂/Û member
// (which encodes the call-graph-cycle facts the transfer functions consult),
// the internal dependency edges, the internal-vs-external shape of control
// successors, the widening-point flags, and the dense worklist-priority
// ranks that fix the intra-component schedule. External edges are excluded
// deliberately: where outputs land does not affect how the component itself
// runs, and replay re-emits external effects against the current graph.
package incr

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
	"strconv"

	"sparrow/internal/dug"
	"sparrow/internal/ir"
	"sparrow/internal/prean"
	"sparrow/internal/sem"
)

// HashParts digests a canonical string sequence (NUL-terminated parts, so
// part boundaries cannot alias).
func HashParts(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ChainNext advances a component's hash chain by one run.
func ChainNext(prev, inputHash string) string { return HashParts(prev, inputHash) }

// hasher feeds NUL-terminated parts into one digest.
type hasher struct{ h io.Writer }

func (w hasher) str(s string) {
	io.WriteString(w.h, s)
	w.h.Write([]byte{0})
}

func (w hasher) num(n int) { w.str(strconv.Itoa(n)) }

func (w hasher) flag(b bool) {
	if b {
		w.str("1")
	} else {
		w.str("0")
	}
}

// StructHashes computes the per-component structure hashes of the sparse
// scheduling graph. The hash is a pure function of version-portable content:
// it is bit-identical across runs, map iteration orders, and — for
// an unedited component — across program versions whose edits only shift the
// dense IDs around it.
func StructHashes(prog *ir.Program, pre *prean.Result, g *dug.Graph, namer *ir.StableNamer) []string {
	p := g.Partition()
	s := &sem.Sem{Prog: prog, Callees: pre.CalleesOf, InCycle: pre.CG.InCycle}
	out := make([]string, p.NumComps())
	for c := range out {
		nodes := p.Nodes[c]
		h := sha256.New()
		w := hasher{h: h}
		ranks := prioRanks(g, nodes)
		for li, n := range nodes {
			w.num(li)
			if g.IsPhi(n) {
				phi := g.PhiOf(n)
				w.str("phi")
				w.str(namer.LocKey(phi.Loc))
			} else {
				pt := prog.Point(ir.PointID(n))
				w.str("pt")
				w.str(namer.CmdKey(pt.Cmd))
				hashCallees(w, prog, pre, namer, pt)
				hashCtrlSuccs(w, prog, pre, p, int32(c), pt)
			}
			w.str("defs")
			for _, l := range g.Defs[n] {
				w.str(namer.LocKey(l))
				w.flag(s.IsSummaryLoc(l))
			}
			w.str("uses")
			for _, l := range g.Uses[n] {
				w.str(namer.LocKey(l))
				w.flag(s.IsSummaryLoc(l))
			}
			w.flag(g.Widen[n])
			w.num(ranks[li])
		}
		// Internal dependency edges, by (local source, location, local
		// target) in the graph's canonical order.
		w.str("deps")
		for _, n := range nodes {
			cur := g.Out(n)
			for _, l := range g.Defs[n] {
				for _, t := range cur.Seek(l) {
					if p.Comp[t] == int32(c) {
						w.num(int(p.LocalIdx[n]))
						w.str(namer.LocKey(l))
						w.num(int(p.LocalIdx[t]))
					}
				}
			}
		}
		out[c] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// hashCallees digests the resolved callee signatures at call and return-bind
// points: the ordered callee names (BindFormals folds callees in this order
// over the accumulating memory), each callee's recursion bit (it decides the
// summary-ness of its formals, locals and return channel), its formal list,
// and its return location.
func hashCallees(w hasher, prog *ir.Program, pre *prean.Result, namer *ir.StableNamer, pt *ir.Point) {
	var callees []ir.ProcID
	switch cmd := pt.Cmd.(type) {
	case ir.Call:
		callees = pre.CalleesOf(pt.ID)
	case ir.RetBind:
		callees = pre.CalleesOf(cmd.CallPt)
	default:
		return
	}
	w.str("callees")
	for _, cp := range callees {
		pr := prog.ProcByID(cp)
		w.str(pr.Name)
		w.flag(pre.CG.InCycle(cp))
		for _, f := range pr.Formals {
			w.str(namer.LocKey(f))
		}
		if pr.RetLoc != ir.None {
			w.str(namer.LocKey(pr.RetLoc))
		} else {
			w.str("-")
		}
	}
}

// hashCtrlSuccs digests the shape of a point's control successors under the
// solver's reach-propagation rules: internal targets by local index,
// external ones collapsed to a marker (their identity is recomputed at
// replay, not replayed from the record).
func hashCtrlSuccs(w hasher, prog *ir.Program, pre *prean.Result, p *dug.Partition, c int32, pt *ir.Point) {
	w.str("succs")
	emit := func(t ir.PointID) {
		if p.Comp[t] == c {
			w.num(int(p.LocalIdx[t]))
		} else {
			w.str("ext")
		}
	}
	switch pt.Cmd.(type) {
	case ir.Call:
		callees := pre.CalleesOf(pt.ID)
		if len(callees) == 0 {
			for _, s := range pt.Succs {
				emit(s)
			}
			return
		}
		for _, cp := range callees {
			emit(prog.ProcByID(cp).Entry)
		}
	case ir.Exit:
		for _, rs := range pre.RetSites[pt.Proc] {
			emit(rs)
		}
	default:
		for _, s := range pt.Succs {
			emit(s)
		}
	}
}

// prioRanks densifies the worklist priorities of a component's nodes: the
// worklist orders strictly by priority (ties broken by insertion), so only
// the relative ranks within the component determine the schedule, and ranks
// survive the global renumbering an edit elsewhere causes.
func prioRanks(g *dug.Graph, nodes []dug.NodeID) []int {
	uniq := make([]int, 0, len(nodes))
	for _, n := range nodes {
		uniq = append(uniq, g.Prio[n])
	}
	sort.Ints(uniq)
	k := 0
	for i, v := range uniq {
		if i == 0 || v != uniq[k-1] {
			uniq[k] = v
			k++
		}
	}
	uniq = uniq[:k]
	ranks := make([]int, len(nodes))
	for i, n := range nodes {
		ranks[i] = sort.SearchInts(uniq, g.Prio[n])
	}
	return ranks
}

package check

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/regset"
)

// Labels is the labeling oracle: it re-derives every flow-summary edge
// of a finished analysis with the paper's literal Figure 6 procedure —
// one CFG subgraph and one backward dataflow per edge — and requires
// the PSG to carry exactly those edges with exactly those labels. It
// reads only exported state (the CFG blocks' successors, predecessors,
// DEF, UBD and terminator classes, cfg.Graph.BlockInLoop, and the PSG's
// nodes, edges and out-edge index) and shares no code with core's
// sparse def-use chain labeler, so agreement is an independent
// derivation of the same labels, not a self-check. Interposing blocks,
// sources and sinks come from the CFG and a.Config.BranchNodes, never
// from the PSG under test:
//
//   - every routine's PSG nodes sit where §3.1 and §3.6 put them: an
//     entry node per entrance, an exit node per ret/halt, a pseudo-exit
//     per jump with unknown targets, a call node per call block with
//     its return node at the call's successor, and — with branch nodes
//     on — a branch node per multiway block inside a loop
//     ("label-node-placement");
//   - each source node (entry, return, branch) has one flow edge per
//     sink block it reaches without crossing an interposing
//     terminator, in ascending block order, and no other node has flow
//     edges ("label-edge-set");
//   - each flow edge's MAY-USE, MAY-DEF and MUST-DEF equal the Figure 6
//     solution over the blocks on paths from its source to its sink
//     ("label-edge-identical").
func Labels(a *core.Analysis) []Violation {
	c := &collector{oracle: "labeling"}
	g := a.PSG
	nodesOf := make([][]int, len(a.Prog.Routines))
	for i := range g.Nodes {
		ri := g.Nodes[i].Routine
		if ri < 0 || ri >= len(nodesOf) {
			c.addf("label-node-placement", "", "node %d names routine %d, out of range", i, ri)
			return c.result()
		}
		nodesOf[ri] = append(nodesOf[ri], i)
	}
	r := &reference{c: c, a: a, tag: fmt.Sprintf("branch nodes %v", a.Config.BranchNodes)}
	for ri, graph := range g.Graphs {
		r.routine(ri, graph, nodesOf[ri])
	}
	return c.result()
}

// Labeling runs the labeling oracle over closed-world analyses of p
// with branch nodes on and off. Branch nodes change the flow edges; the
// world model does not (it only links indirect calls in phase 2), so an
// open-world run would repeat the closed-world checks. Programs the
// analysis rejects are the differential runner's to report.
func Labeling(p *prog.Program) []Violation {
	var vs []Violation
	for _, branch := range []bool{true, false} {
		a, err := core.Analyze(p, core.WithClosedWorld(), core.WithBranchNodes(branch))
		if err != nil {
			continue
		}
		vs = append(vs, Labels(a)...)
	}
	return vs
}

// site names a PSG node by what it represents rather than by its ID.
type site struct {
	kind    core.NodeKind
	block   int
	unknown bool
}

func (s site) String() string {
	if s.unknown {
		return fmt.Sprintf("unknown-jump exit at block %d", s.block)
	}
	return fmt.Sprintf("%s at block %d", s.kind, s.block)
}

// fig6 is one block's Figure 6 IN sets.
type fig6 struct{ mayUse, mayDef, mustDef regset.Set }

// reference holds the per-routine state of the literal procedure; the
// block-indexed slices are reused across routines.
type reference struct {
	c   *collector
	a   *core.Analysis
	tag string

	stop   []bool // the block's terminator interposes: paths end there
	sinkAt []int  // node ID of the sink at an interposing block
	fwd    []bool // reached forward from the current source
	bwd    []bool // reaches the current sink backward, within fwd
	in     []fig6
	queued []bool
	region []int // the blocks fwd marks
	sub    []int // the blocks fwd and bwd both mark
	stack  []int
}

func (r *reference) grow(n int) {
	if cap(r.stop) < n {
		r.stop, r.fwd, r.bwd, r.queued = make([]bool, n), make([]bool, n), make([]bool, n), make([]bool, n)
		r.sinkAt, r.in = make([]int, n), make([]fig6, n)
	}
	r.stop, r.fwd, r.bwd, r.queued = r.stop[:n], r.fwd[:n], r.bwd[:n], r.queued[:n]
	r.sinkAt, r.in = r.sinkAt[:n], r.in[:n]
}

// routine checks routine ri: node placement first, then — only if the
// nodes are where they belong, since every edge check depends on them —
// each node's flow edges and their labels.
func (r *reference) routine(ri int, graph *cfg.Graph, nodes []int) {
	g := r.a.PSG
	name := r.a.Prog.Routines[ri].Name
	r.grow(len(graph.Blocks))

	// The sites §3.1 and §3.6 place, derived from the CFG alone.
	var want []site
	for _, eb := range graph.EntryBlocks {
		want = append(want, site{kind: core.NodeEntry, block: eb})
	}
	for _, b := range graph.Blocks {
		r.stop[b.ID] = true
		switch b.Term {
		case cfg.TermExit:
			want = append(want, site{kind: core.NodeExit, block: b.ID})
		case cfg.TermUnknownJump:
			want = append(want, site{kind: core.NodeExit, block: b.ID, unknown: true})
		case cfg.TermCall:
			want = append(want, site{kind: core.NodeCall, block: b.ID},
				site{kind: core.NodeReturn, block: b.Succs[0]})
		case cfg.TermMultiway:
			if r.a.Config.BranchNodes && graph.BlockInLoop(b.ID) {
				want = append(want, site{kind: core.NodeBranch, block: b.ID})
			} else {
				r.stop[b.ID] = false
			}
		default:
			r.stop[b.ID] = false
		}
	}

	have := make(map[site]int, len(nodes))
	for _, id := range nodes {
		n := &g.Nodes[id]
		have[site{n.Kind, n.Block, n.Unknown}]++
	}
	placed := true
	for _, s := range want {
		if have[s] <= 0 {
			r.c.addf("label-node-placement", name, "%s: no %s node", r.tag, s)
			placed = false
		}
		have[s]--
	}
	for _, id := range nodes {
		n := &g.Nodes[id]
		s := site{n.Kind, n.Block, n.Unknown}
		if have[s] > 0 {
			r.c.addf("label-node-placement", name, "%s: node %d is an unexpected %s", r.tag, id, s)
			have[s] = 0
			placed = false
		}
	}
	if !placed {
		return
	}

	for _, id := range nodes {
		if n := &g.Nodes[id]; n.Kind == core.NodeCall || n.Kind == core.NodeExit || n.Kind == core.NodeBranch {
			r.sinkAt[n.Block] = id
		}
	}
	for _, id := range nodes {
		r.source(name, graph, id)
	}
}

// source checks node id's flow edges. Entry and return nodes start
// their paths at their own block, branch nodes at the jump-table
// targets; the sinks are the interposing blocks reached forward from
// there without crossing another interposing terminator.
func (r *reference) source(name string, graph *cfg.Graph, id int) {
	g := r.a.PSG
	n := &g.Nodes[id]
	var flow []int
	for _, eid := range g.OutEdges(id) {
		if g.Edges[eid].Kind == core.EdgeFlow {
			flow = append(flow, int(eid))
		}
	}
	var starts []int
	switch n.Kind {
	case core.NodeEntry, core.NodeReturn:
		starts = []int{n.Block}
	case core.NodeBranch:
		starts = graph.Blocks[n.Block].Succs
	default:
		if len(flow) > 0 {
			r.c.addf("label-edge-set", name, "%s: %s node %d has %d flow edges; only entry, return and branch nodes start them",
				r.tag, n.Kind, id, len(flow))
		}
		return
	}

	// The forward half of every edge's subgraph. The marks are cleared
	// through the region list, so each source costs its region, not
	// the routine.
	fwd, region := r.fwd, r.region[:0]
	for _, s := range starts {
		if !fwd[s] {
			fwd[s] = true
			region = append(region, s)
		}
	}
	for i := 0; i < len(region); i++ {
		if b := region[i]; !r.stop[b] {
			for _, s := range graph.Blocks[b].Succs {
				if !fwd[s] {
					fwd[s] = true
					region = append(region, s)
				}
			}
		}
	}
	r.region = region
	defer func() {
		for _, b := range region {
			fwd[b] = false
		}
	}()

	var sinks []int
	for _, b := range region {
		if r.stop[b] {
			sinks = append(sinks, b)
		}
	}
	slices.Sort(sinks)
	same := len(flow) == len(sinks)
	for k := 0; same && k < len(flow); k++ {
		same = g.Edges[flow[k]].Dst == r.sinkAt[sinks[k]]
	}
	if !same {
		got := make([]int, len(flow))
		for k, eid := range flow {
			got[k] = -1
			if dst := g.Edges[eid].Dst; dst >= 0 && dst < len(g.Nodes) {
				got[k] = g.Nodes[dst].Block
			}
		}
		r.c.addf("label-edge-set", name, "%s: %s node %d has flow edges to blocks %v, Figure 6 reaches sinks at %v",
			r.tag, n.Kind, id, got, sinks)
		return
	}

	for k, eid := range flow {
		e := &g.Edges[eid]
		want := r.label(graph, starts, sinks[k])
		if (fig6{e.MayUse, e.MayDef, e.MustDef}) != want {
			r.c.addf("label-edge-identical", name,
				"%s: edge %d (%s node %d → block %d) labeled (%v, %v, %v), Figure 6 gives (%v, %v, %v)",
				r.tag, eid, n.Kind, id, sinks[k], e.MayUse, e.MayDef, e.MustDef,
				want.mayUse, want.mayDef, want.mustDef)
		}
	}
}

// label is Figure 6 for the edge from starts to the sink at block y,
// given the forward half of the subgraph in r.fwd: the subgraph is the
// blocks also reaching y backward through predecessors whose
// terminators do not interpose (a walk that stays inside the forward
// half, since every block on such a path from a forward block is
// forward too), and over it the backward equations
//
//	MAY-USE_IN[B]  = UBD[B] ∪ (MAY-USE_OUT[B] − DEF[B])
//	MAY-DEF_IN[B]  = MAY-DEF_OUT[B] ∪ DEF[B]
//	MUST-DEF_IN[B] = MUST-DEF_OUT[B] ∪ DEF[B]
//
// with OUT the ∪/∪/∩ of the subgraph successors' IN and pinned empty
// at y, where the edge's paths end. The label is the meet of IN over
// the starts in the subgraph. Figure 6 starts every set empty; on a
// cyclic subgraph that leaves MUST-DEF at the least fixed point of its
// intersection, below the meet over paths an edge label stands for, so
// MUST-DEF starts at All instead and the iteration shrinks it.
func (r *reference) label(graph *cfg.Graph, starts []int, y int) fig6 {
	fwd, bwd, in, queued := r.fwd, r.bwd, r.in, r.queued
	bwd[y] = true
	sub := append(r.sub[:0], y)
	for i := 0; i < len(sub); i++ {
		for _, p := range graph.Blocks[sub[i]].Preds {
			if fwd[p] && !bwd[p] && !r.stop[p] {
				bwd[p] = true
				sub = append(sub, p)
			}
		}
	}
	r.sub = sub
	inSub := func(b int) bool { return fwd[b] && bwd[b] }

	// Every subgraph block other than y has a subgraph successor (it
	// reaches y through one), so the ∩ below never keeps its All seed.
	// Queued nearest-to-y first: y pops first, its predecessors next.
	stack := r.stack[:0]
	for i := len(sub) - 1; i >= 0; i-- {
		b := sub[i]
		in[b] = fig6{mustDef: regset.All}
		queued[b] = true
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		queued[b] = false
		blk := graph.Blocks[b]
		var out fig6
		if b != y {
			out.mustDef = regset.All
			for _, s := range blk.Succs {
				if inSub(s) {
					out.mayUse = out.mayUse.Union(in[s].mayUse)
					out.mayDef = out.mayDef.Union(in[s].mayDef)
					out.mustDef = out.mustDef.Intersect(in[s].mustDef)
				}
			}
		}
		next := fig6{
			mayUse:  blk.UBD.Union(out.mayUse.Minus(blk.Def)),
			mayDef:  out.mayDef.Union(blk.Def),
			mustDef: out.mustDef.Union(blk.Def),
		}
		if next == in[b] {
			continue
		}
		in[b] = next
		for _, p := range blk.Preds {
			if inSub(p) && !queued[p] {
				queued[p] = true
				stack = append(stack, p)
			}
		}
	}
	r.stack = stack

	// Some start reaches y (y was found forward from them), so at least
	// one start is in the subgraph and the ∩ loses its All seed.
	lbl := fig6{mustDef: regset.All}
	for _, s := range starts {
		if inSub(s) {
			lbl.mayUse = lbl.mayUse.Union(in[s].mayUse)
			lbl.mayDef = lbl.mayDef.Union(in[s].mayDef)
			lbl.mustDef = lbl.mustDef.Intersect(in[s].mustDef)
		}
	}
	for _, b := range sub {
		bwd[b] = false
	}
	return lbl
}

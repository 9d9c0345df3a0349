package core

import (
	"math/bits"
	"slices"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/regset"
)

// Sparse flow-summary labeling (DESIGN.md §11).
//
// A dense Figure 6 solver iterates transfer functions over every CFG
// block of a source's region. Most of that work is redundant: the
// dataflow state only changes at blocks that define or use registers,
// at region boundaries (the blocks PSG nodes sit on), and at
// control-flow splits. This file reformulates the
// labeling on a per-routine def-use chain graph built once per routine:
//
//   - a *chain node* is a block that generates information — DEF ∪ UBD
//     nonempty — or that the labeling must observe or respect anyway: a
//     block carrying a PSG sink (call / exit / pseudo-exit / branch
//     node; exactly the blocks whose terminators interpose) or a block
//     with other than one successor (a split or a dead end, kept so
//     chain links stay single-valued);
//   - every other block is a *forwarding* block: its transfer function
//     is the identity and it has exactly one successor, so the state
//     flows through it unchanged along a forced path. Each forwarding
//     block is contracted to skip[b], the chain node its successor path
//     reaches (or −1 inside an empty infinite loop, which can never
//     reach a sink);
//   - the *def-use links* are a CSR over chain nodes: node i links to
//     the chain nodes its block's successors reach through forwarding
//     blocks. Sink-carrying blocks have no links — paths end at the
//     interposing terminator.
//
// Both edge discovery and the region dataflows then walk only the
// chains that can affect each edge's sink. The solver state lives in
// three regset.Bank columns (MAY-USE, MAY-DEF, MUST-DEF) so a transfer
// step is a handful of branch-free 64-register word operations, and
// per-source cleanup touches only the chain nodes the source reached —
// the bitset worklist self-clears as it drains, never re-cleared.
//
// Equivalence with Figure 6 over the full CFG: the framework is
// distributive (∪/∪/∩ merges of ∪-transfers), so the fixed point on
// the contracted graph equals the meet-over-paths solution, which the
// identity transfers of forwarding blocks cannot change — see
// DESIGN.md §11 for the full argument. internal/check's labeling
// oracle re-derives every edge and label with the paper's literal
// per-edge procedure (check.Labels, FuzzLabeling).

// defUse is one routine's def-use chain slab: pointer-free, flat,
// pooled (defusePool) and reused across routines. It is built during
// the serial structural pass — discovery needs the links — and
// consumed by the parallel labeling pass, which returns it to the pool.
type defUse struct {
	// Block-indexed.
	chainAt  []int32 // block → chain node index, or −1 for forwarding blocks
	skip     []int32 // forwarding block → chain node its successor path reaches, or −1
	fwdState []uint8 // skip-resolution walk state

	// Chain-node-indexed (len nChain).
	blockOf []int32     // chain node → block ID
	sinkOf  []int32     // chain node → sink node ID at its block, or −1
	use     regset.Bank // UBD of the node's block
	def     regset.Bank // DEF of the node's block

	// Def-use links, CSR: node i links to links[linkStart[i]:linkStart[i+1]].
	linkStart []int32
	links     []int32

	// Solver state columns. (∅, ∅, All) encodes "not reached by this
	// source": no reachable in-state has MUST-DEF = All with MAY-DEF = ∅
	// (MUST-DEF ⊆ MAY-DEF along every path), so the encoding is
	// unambiguous and the ∪/∪/∩ merge doubles as the first-touch copy.
	mu, md, msd regset.Bank

	// Per-source region CSR, recorded by discovery: source si reaches
	// exactly region[regionStart[si]:regionStart[si+1]]. The solver
	// propagates along the same links discovery walked, so its touched
	// set equals the region — per-source cleanup resets the window
	// instead of tracking marks on the hot merge path.
	regionStart []int32
	region      []int32

	// qbits is the solve's worklist: one bit per chain node, popped
	// lowest-index-first by word scan + trailing-zero count. Identity
	// priorities make "pop the smallest queued index" exactly the
	// priority-worklist order, at a fraction of a binary heap's cost;
	// draining clears every bit, so the words need no per-source reset.
	qbits []uint64

	// Discovery scratch.
	seen     []bool
	stack    []int32
	sinkBuf  []int32
	startBuf [1]int

	// Slab-backed task storage: the routineNodes arrays and the task's
	// sources/refStart/refs buffers live here so the structural pass
	// allocates nothing for them in the steady state (the slab serves
	// the same routine every pass — see defUseArena).
	rnStore  []int32
	srcBuf   []int32
	refStBuf []int32
	refBuf   []flowEdgeRef

	nChain int
}

// routineNodes carves the node-placement arrays for n blocks out of the
// slab, every entry initialized to -1 (no node).
func (d *defUse) routineNodes(n int) routineNodes {
	if cap(d.rnStore) < 3*n {
		d.rnStore = make([]int32, 3*n)
	}
	store := d.rnStore[:3*n]
	for i := range store {
		store[i] = -1
	}
	return routineNodes{
		returnAt: store[:n],
		branchAt: store[n : 2*n],
		sinkAt:   store[2*n:],
	}
}

// defUseArena owns the chain slabs of one structural pass: the k-th
// buildRoutine call always receives slab k, so across repeated analyses
// each slab serves the same routine and its buffers converge to that
// routine's sizes — pooling the slabs individually would pair them with
// different routines every run (the pool drains during the structural
// pass and refills in label order) and regrow them forever. The arena
// is released back to defusePool once every task is labeled
// (releaseTasks), slabs and all.
type defUseArena struct {
	slabs []*defUse
	next  int
}

func (a *defUseArena) take() *defUse {
	if a.next == len(a.slabs) {
		a.slabs = append(a.slabs, new(defUse))
	}
	d := a.slabs[a.next]
	a.next++
	return d
}

func (a *defUseArena) reset() { a.next = 0 }

// defusePool is instrumented (obs.Pool) so Analyze can report arena
// reuse; an arena is held from the structural pass until its last
// routine is labeled.
var defusePool = obs.NewPool(func() any { return new(defUseArena) })

func (d *defUse) growBlocks(n int) {
	if cap(d.chainAt) < n {
		d.chainAt = make([]int32, n)
		d.skip = make([]int32, n)
		d.fwdState = make([]uint8, n)
		d.seen = make([]bool, n)
	}
	d.chainAt = d.chainAt[:n]
	d.skip = d.skip[:n]
	d.fwdState = d.fwdState[:n]
	d.seen = d.seen[:n]
}

func (d *defUse) growChain(n int) {
	// Sized on linkStart, the one column with n+1 entries: a fresh slab
	// serving a routine without chain nodes (n == 0) still needs its
	// closing link offset.
	if cap(d.linkStart) < n+1 {
		d.blockOf = make([]int32, n)
		d.sinkOf = make([]int32, n)
		d.use = regset.MakeBank(n)
		d.def = regset.MakeBank(n)
		d.linkStart = make([]int32, n+1)
		d.mu = regset.MakeBank(n)
		d.md = regset.MakeBank(n)
		d.msd = regset.MakeBank(n)
		// The solver's per-source cleanup restores every touched entry
		// to (∅, ∅, All), so the columns hold that resting state at all
		// times outside a drain — the All column is written once here,
		// at allocation, never per routine (labelSparse has no Fill).
		d.msd.Fill(regset.All)
	}
	d.blockOf = d.blockOf[:n]
	d.sinkOf = d.sinkOf[:n]
	d.use = d.use[:n]
	d.def = d.def[:n]
	d.linkStart = d.linkStart[:n+1]
	d.mu = d.mu[:n]
	d.md = d.md[:n]
	d.msd = d.msd[:n]
	// Worklist words: freshly allocated words are zero, and a drained
	// solve leaves every word zero again, so no per-build clear is needed.
	nw := (n + 63) / 64
	if cap(d.qbits) < nw {
		d.qbits = make([]uint64, nw)
	}
	d.qbits = d.qbits[:nw]
}

const (
	fwdUnseen uint8 = iota
	fwdWalking
	fwdDone
)

// isChainNode reports whether block b must be a chain node: it
// generates information (DEF ∪ UBD), carries a PSG sink (its terminator
// interposes), or branches/dead-ends (so forwarding paths stay forced).
func isChainNode(b *cfg.Block, rn routineNodes) bool {
	return b.Def|b.UBD != 0 || rn.sinkAt[b.ID] >= 0 || len(b.Succs) != 1
}

// build constructs the routine's chain slab: node classification,
// forwarding contraction, and the def-use link CSR.
func (d *defUse) build(graph *cfg.Graph, rn routineNodes) {
	n := len(graph.Blocks)
	d.growBlocks(n)

	nChain := 0
	for _, b := range graph.Blocks {
		if isChainNode(b, rn) {
			d.chainAt[b.ID] = int32(nChain)
			nChain++
		} else {
			d.chainAt[b.ID] = -1
			d.fwdState[b.ID] = fwdUnseen
		}
	}
	d.nChain = nChain
	d.growChain(nChain)

	// Contract forwarding blocks: each has exactly one successor, so
	// its path to the next chain node is forced. A walk that closes on
	// itself is an empty infinite loop — nothing downstream of it can
	// reach a sink, so the whole path contracts to −1.
	for id := 0; id < n; id++ {
		if d.chainAt[id] >= 0 || d.fwdState[id] != fwdUnseen {
			continue
		}
		path := d.stack[:0]
		cur := int32(id)
		target := int32(-1)
		for {
			if ci := d.chainAt[cur]; ci >= 0 {
				target = ci
				break
			}
			if d.fwdState[cur] == fwdDone {
				target = d.skip[cur]
				break
			}
			if d.fwdState[cur] == fwdWalking {
				break // empty cycle: target stays −1
			}
			d.fwdState[cur] = fwdWalking
			path = append(path, cur)
			cur = int32(graph.Blocks[cur].Succs[0])
		}
		for _, p := range path {
			d.skip[p] = target
			d.fwdState[p] = fwdDone
		}
		d.stack = path[:0]
	}

	// Def-use link CSR, filled in one pass: chain indices were assigned
	// in ascending iteration order over the same block slice, so each
	// node's link window is the append frontier when its turn comes.
	// Sink blocks interpose and get no links.
	links := d.links[:0]
	for _, b := range graph.Blocks {
		ci := d.chainAt[b.ID]
		if ci < 0 {
			continue
		}
		d.linkStart[ci] = int32(len(links))
		d.blockOf[ci] = int32(b.ID)
		d.sinkOf[ci] = rn.sinkAt[b.ID]
		d.use[ci], d.def[ci] = b.UBD, b.Def
		if rn.sinkAt[b.ID] >= 0 {
			continue
		}
		for _, s := range b.Succs {
			if t := d.target(s); t >= 0 {
				links = append(links, t)
			}
		}
	}
	d.linkStart[nChain] = int32(len(links))
	d.links = links
}

// target maps a successor block to the chain node its state flows into:
// the block's own chain node, or its forwarding contraction.
func (d *defUse) target(block int) int32 {
	if ci := d.chainAt[block]; ci >= 0 {
		return ci
	}
	return d.skip[block]
}

// discoverFlowEdgesSparse creates this routine's flow-summary edges
// with empty labels on the chain graph: for each source node (entries
// first, then return and branch nodes by block ID) it walks only the
// def-use links reachable from the source's start blocks and emits one
// edge per sink found, in ascending block order, at O(chain) per source
// instead of O(blocks). The entry nodes are the routine's first
// len(graph.EntryBlocks) nodes, starting at node ID first. labelSparse
// fills in the labels later, possibly on a worker pool.
func (g *PSG) discoverFlowEdgesSparse(t *labelTask, graph *cfg.Graph, first int, rn routineNodes, du *defUse, scratch *buildScratch) {
	t.graph, t.du = graph, du
	sources := du.srcBuf[:0]
	for i := range graph.EntryBlocks {
		sources = append(sources, int32(first+i))
	}
	for blockID := range graph.Blocks {
		if id := rn.returnAt[blockID]; id >= 0 {
			sources = append(sources, id)
		}
		if id := rn.branchAt[blockID]; id >= 0 {
			sources = append(sources, id)
		}
	}
	if cap(du.refStBuf) < len(sources)+1 {
		du.refStBuf = make([]int32, len(sources)+1)
	}
	refStart := du.refStBuf[:len(sources)+1]
	refStart[0] = 0
	refs := du.refBuf[:0]
	if cap(du.regionStart) < len(sources)+1 {
		du.regionStart = make([]int32, len(sources)+1)
	}
	regionStart := du.regionStart[:len(sources)+1]
	regionStart[0] = 0
	region := du.region[:0]
	seen, blockOf, sinkOf, links, linkStart := du.seen, du.blockOf, du.sinkOf, du.links, du.linkStart
	stack, sinks := du.stack[:0], du.sinkBuf[:0]
	for si, srcID := range sources {
		src := &g.Nodes[srcID]
		base := len(region)
		for _, st := range sourceStartBlocks(graph, src, &scratch.startBuf) {
			ci := du.target(st)
			if ci < 0 || seen[ci] {
				continue
			}
			seen[ci] = true
			region = append(region, ci)
			stack = append(stack, ci)
		}
		for len(stack) > 0 {
			ci := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if sinkOf[ci] >= 0 {
				sinks = append(sinks, blockOf[ci])
				continue // no links: the terminator interposes
			}
			for _, nxt := range links[linkStart[ci]:linkStart[ci+1]] {
				if !seen[nxt] {
					seen[nxt] = true
					region = append(region, nxt)
					stack = append(stack, nxt)
				}
			}
		}
		slices.Sort(sinks)
		for _, blockID := range sinks {
			eid := g.addEdge(EdgeFlow, src.ID, int(rn.sinkAt[blockID]))
			refs = append(refs, flowEdgeRef{sink: blockID, edge: int32(eid)})
		}
		refStart[si+1] = int32(len(refs))
		for _, ci := range region[base:] {
			seen[ci] = false
		}
		regionStart[si+1] = int32(len(region))
		sinks = sinks[:0]
	}
	du.stack, du.sinkBuf = stack[:0], sinks
	du.region, du.regionStart = region, regionStart
	du.srcBuf, du.refBuf = sources, refs
	t.sources, t.refStart, t.refs = sources, refStart, refs
}

// labelSparse computes the task's flow-summary edge labels on the
// def-use chains: one region dataflow per source, propagated only along
// the links that can affect the source's sinks, with the three set
// columns updated by word-parallel bank operations. The labels are
// Figure 6's (see the package comment above and DESIGN.md §11).
func (t *labelTask) labelSparse(g *PSG) labelStats {
	du, graph := t.du, t.graph
	// The state columns already rest at (∅, ∅, All): growChain arms
	// them at allocation and the per-source cleanup below restores
	// exactly the touched entries after every drain.
	mu, md, msd := du.mu, du.md, du.msd
	use, def := du.use, du.def
	links, linkStart := du.links, du.linkStart
	region, regionStart := du.region, du.regionStart
	qb := du.qbits
	steps := uint64(0)
	for si, srcID := range t.sources {
		if t.refStart[si] == t.refStart[si+1] {
			continue // no reachable sinks; nothing to label
		}
		src := &g.Nodes[srcID]
		// Seed the source's start states: the empty valid state (∅,∅,∅)
		// merged into each start's chain node (∩ with the All sentinel
		// is the first-touch copy).
		minW := len(qb)
		for _, st := range sourceStartBlocks(graph, src, &du.startBuf) {
			ci := du.target(st)
			if ci < 0 {
				continue
			}
			msd[ci] = 0
			qb[ci>>6] |= 1 << (uint(ci) & 63)
			if w := int(ci >> 6); w < minW {
				minW = w
			}
		}
		// Drain lowest-index-first. Invariant: every word below w is
		// zero — w only advances past zero words and is pulled back
		// whenever a push lands below it — so the popped bit is always
		// the global minimum, exactly the identity-priority heap order.
		for w := minW; w < len(qb); {
			b := qb[w]
			if b == 0 {
				w++
				continue
			}
			i := w<<6 + bits.TrailingZeros64(b)
			qb[w] = b & (b - 1)
			steps++
			// Forward transfer through the node's block.
			omu := mu[i] | (use[i] &^ msd[i])
			omd := md[i] | def[i]
			omsd := msd[i] | def[i]
			for _, j := range links[linkStart[i]:linkStart[i+1]] {
				nmu := mu[j] | omu
				nmd := md[j] | omd
				nmsd := msd[j] & omsd
				if nmu != mu[j] || nmd != md[j] || nmsd != msd[j] {
					mu[j], md[j], msd[j] = nmu, nmd, nmsd
					qb[j>>6] |= 1 << (uint(j) & 63)
					if jw := int(j >> 6); jw < w {
						w = jw
					}
				}
			}
		}
		// The edge label is the state after the sink's block: apply the
		// sink's own transfer to its converged in-state.
		for _, ref := range t.refs[t.refStart[si]:t.refStart[si+1]] {
			ci := du.chainAt[ref.sink]
			e := &g.Edges[ref.edge]
			e.MayUse = mu[ci] | (use[ci] &^ msd[ci])
			e.MayDef = md[ci] | def[ci]
			e.MustDef = msd[ci] | def[ci]
		}
		// The solver reaches exactly the source's region (same seeds,
		// same links as discovery); reset its window to the sentinel.
		for _, ci := range region[regionStart[si]:regionStart[si+1]] {
			mu[ci], md[ci], msd[ci] = 0, 0, regset.All
		}
	}
	return labelStats{links: uint64(len(du.links)), steps: steps}
}

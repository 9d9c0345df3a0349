// Package core implements the paper's primary contribution: the Program
// Summary Graph (PSG) and the two-phase interprocedural dataflow analysis
// that computes, for every routine, the live-at-entry, live-at-exit,
// call-used, call-defined and call-killed register sets (§2, §3).
package core

import (
	"context"
	"time"
	"unsafe"

	"repro/internal/callstd"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/regset"
)

// NodeKind classifies PSG nodes (§3.1, §3.6).
type NodeKind uint8

const (
	// NodeEntry represents one entrance to a routine.
	NodeEntry NodeKind = iota

	// NodeExit represents one exit (ret/halt) from a routine, or —
	// when Unknown is set — an indirect jump with unknown targets,
	// which the analysis treats as an exit where every register is
	// conservatively live (§3.5).
	NodeExit

	// NodeCall represents a call instruction, located at the end of
	// the basic block the call terminates.
	NodeCall

	// NodeReturn represents the point execution re-enters the caller
	// after a call, located at the start of the block following the
	// call.
	NodeReturn

	// NodeBranch represents a multiway branch (§3.6), splitting the
	// O(n²) edges among the branch's sources and targets into O(n).
	NodeBranch
)

func (k NodeKind) String() string {
	switch k {
	case NodeEntry:
		return "entry"
	case NodeExit:
		return "exit"
	case NodeCall:
		return "call"
	case NodeReturn:
		return "return"
	case NodeBranch:
		return "branch"
	}
	return "node?"
}

// Node is a PSG node. Each node records the MAY-USE, MAY-DEF and
// MUST-DEF sets for the program location it represents (§3.1).
//
// Nodes are stored by value in one contiguous slab (PSG.Nodes) and are
// pointer-free: adjacency (edge lists, phase-2 return-site links) lives
// in the PSG's shared index arrays (OutEdges, InEdges, retSites), so
// the slab costs the GC nothing to scan.
type Node struct {
	ID      int
	Kind    NodeKind
	Routine int // routine index within the program
	Block   int // block ID within the routine's CFG

	// EntryIdx is, for entry nodes, the index into Routine.Entries;
	// for exit nodes, the ordinal of the exit within the routine.
	EntryIdx int

	// CallTarget is the callee routine index for direct call nodes,
	// or -1 for indirect calls. CallEntry selects the callee entrance.
	CallTarget int
	CallEntry  int

	// Unknown marks pseudo-exit nodes produced for indirect jumps with
	// unknown targets.
	Unknown bool

	// MayUse, MayDef and MustDef are the node's dataflow sets. Phase 1
	// leaves the call-used/call-killed/call-defined information in the
	// entry nodes; phase 2 recomputes MayUse as liveness.
	MayUse  regset.Set
	MayDef  regset.Set
	MustDef regset.Set

	// phase1Use snapshots MayUse at the end of phase 1, since phase 2
	// overwrites MayUse with liveness. For entry nodes this is the
	// unfiltered call-used set.
	phase1Use regset.Set
}

// Phase1Use returns the node's MAY-USE set as it stood at the end of
// phase 1 (phase 2 overwrites MayUse with liveness). For entry nodes
// this is the unfiltered call-used set; external checkers use it to
// re-verify the phase-1 fixed point after both phases have run.
func (n *Node) Phase1Use() regset.Set { return n.phase1Use }

// EdgeKind classifies PSG edges (§3.1).
type EdgeKind uint8

const (
	// EdgeFlow is a flow-summary edge: it represents all
	// intraprocedural control-flow paths between its nodes and is
	// labeled with the MUST-DEF, MAY-DEF and MAY-USE sets of those
	// paths (Figure 6).
	EdgeFlow EdgeKind = iota

	// EdgeCallReturn connects a call node to its return node and is
	// labeled with the callee's summary during phase 1 (Figure 8).
	EdgeCallReturn
)

// Edge is a PSG edge, stored by value in the PSG.Edges slab.
type Edge struct {
	ID   int
	Kind EdgeKind
	Src  int // source node ID (dataflow flows Dst → Src)
	Dst  int

	// MayUse, MayDef and MustDef label the edge: the register uses and
	// definitions that occur along the control-flow paths the edge
	// represents.
	MayUse  regset.Set
	MayDef  regset.Set
	MustDef regset.Set
}

// PSG is the program summary graph for a whole program.
//
// Storage is flat: Nodes and Edges are value slabs grown in large
// blocks, and adjacency is compressed-sparse-row — one shared index
// array per direction, windowed per node — built once after the
// structural pass. Compared to per-node heap objects and per-node edge
// slices this cuts construction to a handful of large allocations and
// leaves the GC almost nothing to trace.
type PSG struct {
	Prog   *prog.Program
	Graphs []*cfg.Graph
	Nodes  []Node
	Edges  []Edge

	// CSR adjacency: OutEdges(n) == outEdgeIDs[outStart[n]:outStart[n+1]],
	// listing edge IDs with node n as source, in edge-ID order;
	// InEdges(n) mirrors it for edges with n as sink.
	outStart   []int32
	inStart    []int32
	outEdgeIDs []int32
	inEdgeIDs  []int32

	// Phase-2 return-site links (§3.3), CSR keyed by exit node:
	// retSites(x) lists the return-node IDs whose liveness flows into
	// exit x. exitDeps is the reverse mapping (return node → exit
	// nodes), used to propagate changes. Both are (re)built by
	// linkReturnSites.
	retStart   []int32
	retSiteIDs []int32
	depStart   []int32
	depExitIDs []int32

	// EntryNodes[r][e] is the node ID of entrance e of routine r.
	EntryNodes [][]int

	// ExitNodes[r] lists the node IDs of routine r's exits (real
	// exits only, not unknown-jump pseudo-exits), in ID order.
	ExitNodes [][]int

	// CallerEdges[r] lists the call-return edge IDs of direct calls
	// targeting routine r, used to broadcast entry summaries (§3.2).
	// Indexed per entrance: CallerEdges[r][e] lists edges calling
	// entrance e, in ID order.
	CallerEdges [][][]int

	// SavedRestored[r] is the set of callee-saved registers routine r
	// saves in its prologues and restores in its epilogues (§3.4).
	SavedRestored []regset.Set

	// frames caches the per-routine body facts behind SavedRestored so
	// the incremental re-analysis can recompute the set for unedited
	// routines without rescanning their bodies (see FrameFact).
	frames []FrameFact

	// Per-routine slab bounds: routine ri's nodes occupy
	// Nodes[nodeStart[ri]:nodeStart[ri+1]] and its edges
	// Edges[edgeStart[ri]:edgeStart[ri+1]] (both slabs are
	// routine-contiguous in index order). Set by index with the lists
	// above; the incremental re-analysis addresses a routine's ranges
	// through them.
	nodeStart []int32
	edgeStart []int32
}

// FrameFacts returns the cached per-routine §3.4 body facts, indexed by
// routine. The slice is shared; callers must not modify it.
func (g *PSG) FrameFacts() []FrameFact { return g.frames }

// OutEdges returns the IDs of the edges with node id as source, in
// ascending edge-ID order.
func (g *PSG) OutEdges(id int) []int32 {
	return g.outEdgeIDs[g.outStart[id]:g.outStart[id+1]]
}

// InEdges returns the IDs of the edges with node id as sink, in
// ascending edge-ID order.
func (g *PSG) InEdges(id int) []int32 {
	return g.inEdgeIDs[g.inStart[id]:g.inStart[id+1]]
}

// retSites returns, for exit node id, the return-node IDs whose
// liveness flows into the exit during phase 2 (§3.3). Empty until
// linkReturnSites runs.
func (g *PSG) retSites(id int) []int32 {
	if g.retStart == nil {
		return nil
	}
	return g.retSiteIDs[g.retStart[id]:g.retStart[id+1]]
}

// exitDeps returns, for return node id, the exit-node IDs whose
// retSites include it — the reverse of retSites, so changes propagate.
func (g *PSG) exitDeps(id int) []int32 {
	if g.depStart == nil {
		return nil
	}
	return g.depExitIDs[g.depStart[id]:g.depStart[id+1]]
}

// Config controls PSG construction.
type Config struct {
	// BranchNodes inserts a branch node for each multiway branch
	// (§3.6). On by default via DefaultConfig.
	BranchNodes bool

	// LinkIndirectCalls additionally links indirect-call return sites
	// to the exits of every address-taken routine during phase 2,
	// keeping the analysis sound in a closed world. The paper relies
	// on calling-standard conformance instead (§3.5); disabling this
	// reproduces that behaviour exactly.
	LinkIndirectCalls bool

	// Parallelism bounds the worker pool used by the per-routine
	// stages (CFG construction, DEF/UBD initialization, flow-summary
	// edge labeling). <= 0 selects runtime.GOMAXPROCS; 1 runs the
	// pipeline serially. Results are identical for every value.
	Parallelism int

	// Tracer, when non-nil, is the position in a span tree where the
	// analysis opens its "analyze", "reanalyze" or "rehydrate" span: a
	// fresh tree (obs.NewTracer) for an offline capture, or a point
	// under a caller's span (a daemon request's). Under it go the
	// pipeline stages and waves and, in a tree with worker tracks, every
	// per-routine and component solve (see internal/obs and DESIGN.md
	// §8). nil — the default — disables tracing at the cost of one
	// branch-predictable check per instrumentation site.
	Tracer *obs.Tracer

	// Metrics, when non-nil, receives the solver telemetry counters and
	// histograms (worklist traffic, per-component iterations, relabels,
	// graph-shape gauges). nil disables them the same way.
	Metrics *obs.Metrics

	// ctx is the cancellation context AnalyzeContext threads through
	// the pipeline; nil means no cancellation. Deliberately unexported:
	// contexts travel through AnalyzeContext calls, not through stored
	// configurations (a Config kept in an options struct must not pin a
	// request-scoped context).
	ctx context.Context
}

// cancelCh returns the configuration's cancellation channel, nil when
// the analysis is not cancellable (no context, or a context that can
// never be cancelled): the solve loops poll a nil channel for free.
func (c Config) cancelCh() <-chan struct{} {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Done()
}

// Workers returns the effective worker count for this configuration.
func (c Config) Workers() int { return par.Workers(c.Parallelism) }

// DefaultConfig returns the library default: branch nodes on, and the
// closed-world indirect linkage on — safe even for programs whose
// address-taken routines do not conform to the calling standard.
func DefaultConfig() Config {
	return Config{BranchNodes: true, LinkIndirectCalls: true}
}

// PaperConfig reproduces Spike's published behaviour exactly: branch
// nodes on, indirect calls and returns handled purely through the
// calling-standard assumptions of §3.5 ("these assumptions have proven
// safe for all programs optimized to date"). The benchmark harness uses
// this configuration.
func PaperConfig() Config {
	return Config{BranchNodes: true, LinkIndirectCalls: false}
}

// node construction -------------------------------------------------------

// layoutPSG lays out a fresh PSG routine by routine in index order, so
// node and edge IDs are deterministic — independent of
// Config.Parallelism — and both slabs are routine-contiguous. A routine
// that clean marks copies its node and edge range from prev, converged
// sets and labels included, with IDs shifted to their new offsets;
// every other routine runs the structural pass (buildRoutine) and
// yields its labeling task, in routine order. With prev == nil every
// routine is built: Analyze's layout. A copied range keeps its creation
// order, so the slabs are exactly those a from-scratch build of the
// same program lays out, and index derives the same lists from them.
// Only clean ranges of prev are read.
//
// The slabs are presized so construction avoids append-doubling: a
// copied range's lengths are exact, and a built routine's node count
// comes from its terminator classes — exact except that multiway blocks
// outside loops get no branch node (a small overcount) — with its edges
// capped by the observed flow-edge density (≈2 per node across the
// benchmark profiles; exceeding the guess falls back to amortized
// growth). The structural pass shares one scratch buffer across
// routines, so its allocation count is O(routines) rather than
// O(nodes + edges).
func layoutPSG(p *prog.Program, graphs []*cfg.Graph, conf Config, prev *PSG, clean []bool) (*PSG, []labelTask) {
	copied := func(ri int) bool { return prev != nil && clean[ri] }
	nodeCap, edgeCap, built := 0, 0, 0
	for ri, gr := range graphs {
		if copied(ri) {
			nodeCap += int(prev.nodeStart[ri+1] - prev.nodeStart[ri])
			edgeCap += int(prev.edgeStart[ri+1] - prev.edgeStart[ri])
			continue
		}
		built++
		nodes := len(gr.EntryBlocks)
		for _, b := range gr.Blocks {
			switch b.Term {
			case cfg.TermExit, cfg.TermUnknownJump, cfg.TermMultiway:
				nodes++
			case cfg.TermCall:
				nodes += 2
			}
		}
		nodeCap += nodes
		edgeCap += 2 * nodes
	}
	g := &PSG{
		Prog:   p,
		Graphs: graphs,
		Nodes:  make([]Node, 0, nodeCap),
		Edges:  make([]Edge, 0, edgeCap),
	}
	tasks := make([]labelTask, 0, built)
	var scratch buildScratch
	for ri := range graphs {
		if !copied(ri) {
			tasks = append(tasks, labelTask{})
			g.buildRoutine(&tasks[len(tasks)-1], ri, conf, &scratch)
			continue
		}
		nlo, nhi := int(prev.nodeStart[ri]), int(prev.nodeStart[ri+1])
		elo, ehi := int(prev.edgeStart[ri]), int(prev.edgeStart[ri+1])
		nd, ed := len(g.Nodes)-nlo, len(g.Edges)-elo
		g.Nodes = append(g.Nodes, prev.Nodes[nlo:nhi]...)
		g.Edges = append(g.Edges, prev.Edges[elo:ehi]...)
		if nd != 0 {
			for i := nlo + nd; i < nhi+nd; i++ {
				g.Nodes[i].ID += nd
			}
		}
		if nd != 0 || ed != 0 {
			for i := elo + ed; i < ehi+ed; i++ {
				e := &g.Edges[i]
				e.ID += ed
				e.Src += nd
				e.Dst += nd
			}
		}
	}
	g.index()
	return g, tasks
}

// labelAll runs the labeling pass over tasks on the worker pool, under
// a "label" span of sp, and then releases their chain-slab arena. Each
// task computes one routine's flow-summary edge labels (the Figure 6
// dataflow over its def-use chains, defuse.go — the dominant cost of PSG
// construction) and writes only that routine's Edge structs, so the
// result is byte-identical to a serial run. It returns the pass's
// aggregate compute time.
func (g *PSG) labelAll(tasks []labelTask, conf Config, sp obs.Span) time.Duration {
	flowEdges := conf.Metrics.Counter("label/flow_edges")
	defuseLinks := conf.Metrics.Counter("label/defuse_links")
	chainSteps := conf.Metrics.Counter("label/chain_steps")
	cpu := par.ForEachSpan(sp, "label", len(tasks), conf.Workers(), func(i int) {
		st := tasks[i].label(g)
		flowEdges.Add(uint64(len(tasks[i].refs)))
		defuseLinks.Add(st.links)
		chainSteps.Add(st.steps)
	})
	releaseTasks(tasks)
	return cpu
}

// index derives everything that depends on the slab layout from the
// finished slabs: the per-routine slab bounds; EntryNodes, indexed by
// EntryIdx; ExitNodes (real exits) and CallerEdges (the call-return
// edges of direct call nodes), both in ID order, which is the
// structural pass's creation order; and then the CSR adjacency. The
// lists are exact-capacity windows of one shared ID slab, and their
// headers of a second, so the derivation costs a fixed handful of
// allocations whatever the routine count.
//
// It relies on three properties of the slabs: both are
// routine-contiguous in index order, every entrance has exactly one
// entry node, and every call node's target entrance exists. A layout
// has them by construction; Rehydrate checks them in an untrusted
// state before deriving anything.
func (g *PSG) index() {
	nR := len(g.Prog.Routines)
	// Per-routine offsets, carved from one allocation: the node and edge
	// slab bounds, then each routine's first entrance and first real exit
	// in the ID slab.
	off := make([]int32, 4*(nR+1))
	nodeStart, off := off[:nR+1:nR+1], off[nR+1:]
	edgeStart, off := off[:nR+1:nR+1], off[nR+1:]
	entryOff, exitOff := off[:nR+1:nR+1], off[nR+1:]
	for ri, r := range g.Prog.Routines {
		entryOff[ri+1] = entryOff[ri] + int32(len(r.Entries))
	}
	nEntries := entryOff[nR]
	// callerOff[k] is the offset of entrance k's caller list, entrances
	// numbered across routines through entryOff.
	callerOff := make([]int32, nEntries+1)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		nodeStart[n.Routine+1]++
		if n.Kind == NodeExit && !n.Unknown {
			exitOff[n.Routine+1]++
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		src := &g.Nodes[e.Src]
		edgeStart[src.Routine+1]++
		if e.Kind == EdgeCallReturn && src.Kind == NodeCall && src.CallTarget >= 0 {
			callerOff[entryOff[src.CallTarget]+int32(src.CallEntry)+1]++
		}
	}
	for ri := 0; ri < nR; ri++ {
		nodeStart[ri+1] += nodeStart[ri]
		edgeStart[ri+1] += edgeStart[ri]
		exitOff[ri+1] += exitOff[ri]
	}
	for k := int32(0); k < nEntries; k++ {
		callerOff[k+1] += callerOff[k]
	}

	ids := make([]int, nEntries+exitOff[nR]+callerOff[nEntries])
	entrySlab, ids := ids[:nEntries:nEntries], ids[nEntries:]
	exitSlab, callerSlab := ids[:exitOff[nR]:exitOff[nR]], ids[exitOff[nR]:]
	heads := make([][]int, 2*int32(nR)+nEntries)
	g.EntryNodes, heads = heads[:nR:nR], heads[nR:]
	g.ExitNodes, heads = heads[:nR:nR], heads[nR:]
	g.CallerEdges = make([][][]int, nR)
	for ri := 0; ri < nR; ri++ {
		lo, hi := entryOff[ri], entryOff[ri+1]
		g.EntryNodes[ri] = entrySlab[lo:hi:hi]
		g.ExitNodes[ri] = exitSlab[exitOff[ri]:exitOff[ri]:exitOff[ri+1]]
		g.CallerEdges[ri] = heads[lo:hi:hi]
		for k := lo; k < hi; k++ {
			heads[k] = callerSlab[callerOff[k]:callerOff[k]:callerOff[k+1]]
		}
	}
	// Fill the windows: entry nodes by entrance, exits and caller edges
	// appended in ID order. Each window's capacity is its exact length,
	// so no append reallocates.
	for i := range g.Nodes {
		switch n := &g.Nodes[i]; {
		case n.Kind == NodeEntry:
			g.EntryNodes[n.Routine][n.EntryIdx] = i
		case n.Kind == NodeExit && !n.Unknown:
			g.ExitNodes[n.Routine] = append(g.ExitNodes[n.Routine], i)
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if call := &g.Nodes[e.Src]; e.Kind == EdgeCallReturn && call.Kind == NodeCall && call.CallTarget >= 0 {
			callers := &g.CallerEdges[call.CallTarget][call.CallEntry]
			*callers = append(*callers, i)
		}
	}
	g.nodeStart, g.edgeStart = nodeStart, edgeStart
	g.buildAdjacency()
}

// newNode appends a node with the common fields set and returns its ID;
// callers fill kind-specific fields through g.Nodes[id]. Extending into
// capacity writes four scalars instead of copying a 100-byte Node
// value. This relies on the slab's spare capacity being zero: fresh
// makes and append growth both yield zeroed memory, and the
// shape-preserving re-assembly clears each rebuilt window before
// handing it back.
func (g *PSG) newNode(kind NodeKind, routine, block int) int {
	id := len(g.Nodes)
	if id < cap(g.Nodes) {
		g.Nodes = g.Nodes[:id+1]
	} else {
		g.Nodes = append(g.Nodes, Node{})
	}
	n := &g.Nodes[id]
	n.ID, n.Kind, n.Routine, n.Block = id, kind, routine, block
	return id
}

// addEdge appends an unlabeled edge; like newNode it extends into
// spare capacity (guaranteed zero) and writes only the scalar fields.
func (g *PSG) addEdge(kind EdgeKind, src, dst int) int {
	id := len(g.Edges)
	if id < cap(g.Edges) {
		g.Edges = g.Edges[:id+1]
	} else {
		g.Edges = append(g.Edges, Edge{})
	}
	e := &g.Edges[id]
	e.ID, e.Kind, e.Src, e.Dst = id, kind, src, dst
	return id
}

// buildAdjacency compresses the edge lists into the two CSR index
// arrays: a counting pass per direction, a prefix sum, and a fill pass
// that visits edges in ID order — so each node's window lists its edges
// in ascending edge-ID order, exactly the order incremental appends
// would have produced.
func (g *PSG) buildAdjacency() {
	n, m := len(g.Nodes), len(g.Edges)
	idx := make([]int32, 2*(n+1)+2*m)
	g.outStart, idx = idx[:n+1:n+1], idx[n+1:]
	g.inStart, idx = idx[:n+1:n+1], idx[n+1:]
	g.outEdgeIDs, idx = idx[:m:m], idx[m:]
	g.inEdgeIDs = idx
	outStart, inStart := g.outStart, g.inStart
	for i := range g.Edges {
		outStart[g.Edges[i].Src+1]++
		inStart[g.Edges[i].Dst+1]++
	}
	for i := 0; i < n; i++ {
		outStart[i+1] += outStart[i]
		inStart[i+1] += inStart[i]
	}
	// Fill using the start arrays themselves as write cursors, then
	// shift them back one slot: after the fill outStart[v] has advanced
	// to the end of v's window, which is exactly the start of v+1's.
	for i := range g.Edges {
		e := &g.Edges[i]
		g.outEdgeIDs[outStart[e.Src]] = int32(i)
		outStart[e.Src]++
		g.inEdgeIDs[inStart[e.Dst]] = int32(i)
		inStart[e.Dst]++
	}
	for i := n; i > 0; i-- {
		outStart[i] = outStart[i-1]
		inStart[i] = inStart[i-1]
	}
	outStart[0], inStart[0] = 0, 0
}

// flowEdgeRef ties a discovered flow-summary edge to the sink block it
// terminates at, for the labeling pass.
type flowEdgeRef struct {
	sink int32 // sink block ID
	edge int32 // edge ID (resolved against the slab at label time)
}

// labelTask carries one routine's discovered flow-summary edges from
// the structural pass to the labeling pass. Labeling a task touches
// only the task's own routine — its CFG, its chain slab, and the
// Edge slab entries its refs name — so tasks may run concurrently.
// refs is one flat array windowed per source by refStart.
type labelTask struct {
	graph    *cfg.Graph
	sources  []int32 // source node IDs
	refStart []int32 // len(sources)+1; refs of source i in [refStart[i], refStart[i+1])
	refs     []flowEdgeRef

	// du is the routine's def-use chain slab, built by the structural
	// pass and consumed by label; arena owns it (one arena per
	// structural pass, released by releaseTasks once every task is
	// labeled).
	du    *defUse
	arena *defUseArena
}

// labelStats reports one task's labeling telemetry, aggregated into the
// label/* counters by the callers' labeling loops. Both values are
// deterministic per routine (the chain slab and the priority worklist's
// pop sequence don't depend on worker scheduling), so the counters stay
// parallelism-invariant and are published as stable metrics.
type labelStats struct {
	links uint64 // def-use link arcs in the routine's chain CSR
	steps uint64 // chain worklist pops across the routine's sources
}

// label computes the Figure 6 labels of the task's flow-summary edges
// on the routine's pooled chain slab, so steady-state labeling
// allocates nothing.
func (t *labelTask) label(g *PSG) labelStats {
	st := t.labelSparse(g)
	t.du = nil
	return st
}

// releaseTasks returns the tasks' chain-slab arena to its pool, after
// the labeling loop has consumed every task — or without labeling at
// all, for the shape-preserving re-assembly, which abandons a batch of
// built tasks when its structure check fails. One structural pass uses
// one arena, so tasks sharing it are contiguous.
func releaseTasks(tasks []labelTask) {
	var last *defUseArena
	for i := range tasks {
		if a := tasks[i].arena; a != nil && a != last {
			a.reset()
			defusePool.Put(a)
			last = a
		}
		tasks[i].arena, tasks[i].du = nil, nil
	}
}

// routineNodes carries the per-routine node placement used while
// constructing edges: three block-indexed arrays (node ID or -1),
// carved out of one allocation.
type routineNodes struct {
	// returnAt[blockID] is the return node starting at that block.
	returnAt []int32
	// branchAt[blockID] is the branch node for a multiway block.
	branchAt []int32
	// sinkAt[blockID] is the node ID that terminates paths entering
	// the block (call, exit, pseudo-exit or branch node).
	sinkAt []int32
}

// buildScratch is reused across buildRoutine calls of the serial
// structural pass.
type buildScratch struct {
	startBuf [1]int
	// defuse is the chain-slab arena of this structural pass, acquired
	// lazily on the first routine. Ownership passes to the built tasks
	// (labelTask.arena); the labeling loop releases it.
	defuse *defUseArena
}

func (g *PSG) buildRoutine(t *labelTask, ri int, conf Config, scratch *buildScratch) {
	graph := g.Graphs[ri]
	// The routine's chain slab is taken up front so the node-placement
	// arrays and the discovery buffers live in it: slab k always serves
	// the k-th routine of a structural pass, so the buffers converge to
	// that routine's sizes and the steady state allocates nothing (see
	// defUseArena).
	if scratch.defuse == nil {
		scratch.defuse = defusePool.Get().(*defUseArena)
		scratch.defuse.reset()
	}
	du := scratch.defuse.take()
	rn := du.routineNodes(len(graph.Blocks))

	// Entry nodes: one per entrance (§3.1), the routine's first nodes.
	first := len(g.Nodes)
	for ei, blockID := range graph.EntryBlocks {
		id := g.newNode(NodeEntry, ri, blockID)
		g.Nodes[id].EntryIdx = ei
	}

	exitOrdinal := 0
	for _, b := range graph.Blocks {
		switch b.Term {
		case cfg.TermExit:
			id := g.newNode(NodeExit, ri, b.ID)
			g.Nodes[id].EntryIdx = exitOrdinal
			exitOrdinal++
			rn.sinkAt[b.ID] = int32(id)
		case cfg.TermUnknownJump:
			id := g.newNode(NodeExit, ri, b.ID)
			g.Nodes[id].Unknown = true
			rn.sinkAt[b.ID] = int32(id)
		case cfg.TermCall:
			in := graph.Terminator(b)
			callTarget, callEntry := -1, 0
			if in.Op == isa.OpJsr {
				callTarget, callEntry = in.Target, int(in.Imm)
			}
			callID := g.newNode(NodeCall, ri, b.ID)
			g.Nodes[callID].CallTarget = callTarget
			g.Nodes[callID].CallEntry = callEntry
			rn.sinkAt[b.ID] = int32(callID)
			// The return node lives at the start of the call's
			// unique successor block.
			retBlock := b.Succs[0]
			retID := g.newNode(NodeReturn, ri, retBlock)
			rn.returnAt[retBlock] = int32(retID)
			// Call-return edge (§3.1); labeled during phase 1 for
			// direct calls, pinned to the calling-standard summary
			// for indirect calls (§3.5).
			eid := g.addEdge(EdgeCallReturn, callID, retID)
			if callTarget < 0 {
				s := callstd.UnknownCallSummary()
				e := &g.Edges[eid]
				e.MayUse, e.MustDef, e.MayDef = s.Used, s.Defined, s.Killed
			}
		case cfg.TermMultiway:
			// §3.6: multiway branches *inside loops* are the ones that
			// multiply PSG edges (every return reaches every call
			// through the back edge); an isolated switch with one
			// source and one sink would gain an edge from the split.
			if conf.BranchNodes && graph.BlockInLoop(b.ID) {
				id := g.newNode(NodeBranch, ri, b.ID)
				rn.branchAt[b.ID] = int32(id)
				rn.sinkAt[b.ID] = int32(id)
			}
		}
	}

	du.build(graph, rn)
	g.discoverFlowEdgesSparse(t, graph, first, rn, du, scratch)
	t.arena = scratch.defuse
}

// sourceStartBlocks returns the CFG blocks at which paths from node n
// begin: the node's own block for entry and return nodes, the jump-table
// targets for branch nodes. buf backs the single-block case so the call
// never allocates.
func sourceStartBlocks(graph *cfg.Graph, n *Node, buf *[1]int) []int {
	if n.Kind == NodeBranch {
		return graph.Blocks[n.Block].Succs
	}
	buf[0] = n.Block
	return buf[:]
}

// NumNodes returns the number of PSG nodes.
func (g *PSG) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the number of PSG edges.
func (g *PSG) NumEdges() int { return len(g.Edges) }

const (
	nodeSize = unsafe.Sizeof(Node{})
	edgeSize = unsafe.Sizeof(Edge{})
)

// MemoryFootprint returns the resident bytes of the PSG's flattened
// storage: the node and edge slabs, the CSR adjacency and the phase-2
// return-site links. Per-routine index slices (entry/exit/caller lists)
// are counted too; Prog and Graphs are not — the CFGs report their own
// footprint via cfg.Graph.MemoryFootprint.
func (g *PSG) MemoryFootprint() uint64 {
	b := uint64(len(g.Nodes))*uint64(nodeSize) + uint64(len(g.Edges))*uint64(edgeSize)
	b += 4 * uint64(len(g.outStart)+len(g.inStart)+len(g.outEdgeIDs)+len(g.inEdgeIDs))
	b += g.linkFootprint()
	for r := range g.EntryNodes {
		b += 8 * uint64(len(g.EntryNodes[r])+len(g.ExitNodes[r]))
		for _, edges := range g.CallerEdges[r] {
			b += 8 * uint64(len(edges))
		}
	}
	b += 8 * uint64(len(g.SavedRestored))
	return b
}

// linkFootprint returns the resident bytes of the phase-2 return-site
// links, the part of MemoryFootprint a shape-preserving re-analysis
// can change.
func (g *PSG) linkFootprint() uint64 {
	return 4 * uint64(len(g.retStart)+len(g.retSiteIDs)+len(g.depStart)+len(g.depExitIDs))
}

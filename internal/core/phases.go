package core

import (
	"time"

	"repro/internal/callgraph"
	"repro/internal/callstd"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/regset"
)

// Phase 1 (§3.2, Figure 8) computes the call-used, call-defined and
// call-killed sets: a backward dataflow over the PSG in which
// information flows from each routine's exits to its entrances, and
// from entrances across call-return edges into callers.
//
// Soundness deviation from the paper's Figure 8 (documented in
// DESIGN.md): at a node with several outgoing edges the MUST-DEF sets
// are intersected, not unioned — a register is only "defined by the
// call" if it is defined along every path.
//
// Both phases are scheduled over the call graph's SCC condensation
// (internal/callgraph) instead of one global worklist: every PSG edge
// is intraprocedural, so cross-routine information moves only through
// entry-summary broadcasts (phase 1, callee → caller) and return-site
// links (phase 2, caller → callee). Each strongly connected component
// is therefore a self-contained fixed-point problem once the
// components it depends on have converged, and components that share a
// wave have no dependency between them, so a wave's components run
// concurrently on the worker pool. DESIGN.md §6 develops the
// determinism argument: the converged sets are the unique fixed point
// of monotone equations, so the result is byte-identical to a single
// global worklist at every parallelism setting, and the per-component
// iteration counts depend only on the schedule, not on the workers.
//
// Within a component the worklist is priority-ordered by a DFS
// postorder over the component's PSG edges: recompute(n) reads the
// nodes n's outgoing edges point at, so popping edge targets before
// their sources makes each sweep near-topological and cuts the
// iteration count relative to FIFO order. The priorities are static,
// so the pop sequence — and with it Stats.Phase1/2Iterations — stays
// deterministic and parallelism-invariant.

// indirect reports whether a call-return edge belongs to an indirect
// call: there is no single callee entry node to refine it (§3.5).
func (e *Edge) indirect(g *PSG) bool {
	return e.Kind == EdgeCallReturn && g.Nodes[e.Src].CallTarget < 0
}

// phase1Seed returns the pinned contribution of nodes that have no
// outgoing flow edges: real exits contribute nothing (register uses
// after a return belong to phase 2); unknown-jump pseudo-exits
// contribute the §3.5 worst case.
func phase1Seed(n *Node) (mayUse, mayDef regset.Set) {
	if n.Unknown {
		all := callstd.UnknownJumpLive()
		return all, all
	}
	return regset.Empty, regset.Empty
}

// recompute applies the Figure 8 node equations, returning the new sets
// for node n. seedUse/seedDef fold in pinned conservative information.
// clamp bounds MUST-DEF by MAY-DEF; see solvePhase1's grounding pass.
func (g *PSG) recompute(n *Node, phase2, clamp bool) (mayUse, mayDef, mustDef regset.Set) {
	mayUse, mayDef = phase1Seed(n)
	if phase2 {
		mayUse = g.phase2Seed(n)
		for _, rs := range g.retSites(n.ID) {
			mayUse = mayUse.Union(g.Nodes[rs].MayUse)
		}
	}
	first := true
	for _, eid := range g.OutEdges(n.ID) {
		e := &g.Edges[eid]
		y := &g.Nodes[e.Dst]
		mayUse = mayUse.Union(e.MayUse).Union(y.MayUse.Minus(e.MustDef))
		if phase2 {
			continue
		}
		mayDef = mayDef.Union(e.MayDef).Union(y.MayDef)
		md := e.MustDef.Union(y.MustDef)
		if first {
			mustDef = md
			first = false
		} else {
			mustDef = mustDef.Intersect(md)
		}
	}
	if clamp {
		mustDef = mustDef.Intersect(mayDef)
	}
	return mayUse, mayDef, mustDef
}

// phaseSched drives both interprocedural phases over the SCC wave
// schedule. It maps each PSG node to its routine's component and to a
// dense index within that component, so each component's worklist is
// sized to the component rather than to the whole graph. The
// per-component member lists and worklist priorities are stored flat —
// one array each, windowed by compOff — so building the schedule costs
// a constant number of allocations regardless of the component count.
type phaseSched struct {
	g       *PSG
	cg      *callgraph.Graph
	conf    Config
	workers int

	compOff     []int32 // component → offset into compNodeIDs/compOrder
	compNodeIDs []int32 // node IDs grouped by component, ascending within
	compOrder   []int32 // seed order per component: local indices, postorder
	nodeComp    []int32 // node ID → component
	localIdx    []int32 // node ID → index within its component

	// Phase-1 indirect-call machinery (§3.5): the indirect call-return
	// edges and the entry nodes of address-taken routines, all of which
	// the call graph pins into pinnedComp so their mutual dependency
	// stays inside one component.
	indirectEdges    []int32
	addrTakenEntries []int
	pinnedComp       int

	// Pre-resolved telemetry instruments, one bundle per phase. With
	// Config.Metrics nil every field is a nil instrument and the solve
	// loops' flush calls no-op.
	obs1, obs2 phaseObs

	// cancel is the analysis's cancellation channel (nil when the
	// analysis is not cancellable). The scheduler polls it before each
	// wave and component solve, and the solve loops poll it every
	// cancelStride iterations, so a cancelled caller stops paying for
	// the fixed point within microseconds without any cost on the
	// uncancellable path (selecting on a nil channel is a no-op).
	cancel <-chan struct{}

	// retAt and retVals are the incremental re-analysis's record of the
	// previous converged liveness it overwrites: before a phase first
	// re-solves component c, snapshotRets appends its return nodes'
	// MAY-USE sets, in member order, to retVals and sets retAt[c] to
	// their offset plus one (zero: not yet captured). The phase-2 cutoff
	// compares against these snapshots because the slab being solved
	// holds the previous values only until the solve overwrites them.
	// Both nil in a from-scratch analysis, which has no cutoffs.
	retAt   []int32
	retVals []regset.Set
}

// snapshotRets records component c's return-node MAY-USE sets unless
// an earlier phase already did. Called serially, between waves.
func (s *phaseSched) snapshotRets(c int) {
	if s.retAt[c] != 0 {
		return
	}
	s.retAt[c] = int32(len(s.retVals)) + 1
	for _, nid := range s.nodes(c) {
		if n := &s.g.Nodes[nid]; n.Kind == NodeReturn {
			s.retVals = append(s.retVals, n.MayUse)
		}
	}
}

// retSnapshot returns component c's return-node snapshot (see retAt).
func (s *phaseSched) retSnapshot(c int) []regset.Set {
	return s.retVals[s.retAt[c]-1:]
}

// cancelStride bounds how many worklist pops a solve loop performs
// between cancellation polls.
const cancelStride = 1024

// cancelled reports whether the analysis's context has been cancelled.
func (s *phaseSched) cancelled() bool {
	if s.cancel == nil {
		return false
	}
	select {
	case <-s.cancel:
		return true
	default:
		return false
	}
}

// phaseObs bundles the per-phase solver instruments. The solve loops
// count in plain locals and flush here once per component, so enabling
// metrics adds a handful of atomic adds per component, not per node.
type phaseObs struct {
	iterations *obs.Counter   // total worklist pops
	pushes     *obs.Counter   // total worklist pushes (incl. suppressed)
	relabels   *obs.Counter   // call-return edge label writes
	edgeScans  *obs.Counter   // out-edges read by recompute (≈ set ops)
	compIters  *obs.Histogram // iterations per SCC component
}

func newPhaseObs(m *obs.Metrics, phase string) phaseObs {
	return phaseObs{
		iterations: m.Counter(phase + "/iterations"),
		pushes:     m.Counter(phase + "/worklist_pushes"),
		relabels:   m.Counter(phase + "/edge_relabels"),
		edgeScans:  m.Counter(phase + "/edge_scans"),
		compIters:  m.Histogram(phase + "/component_iterations"),
	}
}

// nodes returns component c's member node IDs, ascending.
func (s *phaseSched) nodes(c int) []int32 {
	return s.compNodeIDs[s.compOff[c]:s.compOff[c+1]]
}

// order returns component c's worklist seed order: the component's
// local node indices in DFS postorder over the PSG's out-edges.
func (s *phaseSched) order(c int) []int32 {
	return s.compOrder[s.compOff[c]:s.compOff[c+1]]
}

func newPhaseSched(g *PSG, cg *callgraph.Graph, conf Config) *phaseSched {
	nNodes := len(g.Nodes)
	nComp := cg.NumComponents()
	s := &phaseSched{
		g:           g,
		cg:          cg,
		conf:        conf,
		workers:     conf.Workers(),
		compOff:     make([]int32, nComp+1),
		compNodeIDs: make([]int32, nNodes),
		compOrder:   make([]int32, nNodes),
		nodeComp:    make([]int32, nNodes),
		localIdx:    make([]int32, nNodes),
		pinnedComp:  -1,
		cancel:      conf.cancelCh(),
	}
	for i := range g.Nodes {
		s.compOff[cg.Component(g.Nodes[i].Routine)+1]++
	}
	for c := 0; c < nComp; c++ {
		s.compOff[c+1] += s.compOff[c]
	}
	next := make([]int32, nComp)
	for i := range g.Nodes {
		c := cg.Component(g.Nodes[i].Routine)
		s.nodeComp[i] = int32(c)
		s.localIdx[i] = next[c]
		s.compNodeIDs[s.compOff[c]+next[c]] = int32(i)
		next[c]++
	}
	// Resolve instruments only when metrics are on: the name concat
	// alone would otherwise cost the disabled path allocations.
	if conf.Metrics != nil {
		s.obs1 = newPhaseObs(conf.Metrics, "phase1")
		s.obs2 = newPhaseObs(conf.Metrics, "phase2")
	}
	s.computePriorities()
	return s
}

// schedShape is the structure-dependent half of a phaseSched: the
// component membership maps and seed orders plus the §3.5 indirect-call
// machinery. All of it is a pure function of the PSG's structure and
// the call graph's condensation, written once at scheduler construction
// (or phase-1 start, for the indirect arrays) and read-only afterwards,
// so an Analysis may retain it and a later structurally identical
// re-analysis may share it wholesale.
type schedShape struct {
	compOff     []int32
	compNodeIDs []int32
	compOrder   []int32
	nodeComp    []int32
	localIdx    []int32

	indirectEdges    []int32
	addrTakenEntries []int
	pinnedComp       int
}

// shape captures the scheduler's structure-dependent arrays for reuse.
// Call it only after the indirect machinery is populated (after the
// phases ran, or after prepareIndirect).
func (s *phaseSched) shape() *schedShape {
	return &schedShape{
		compOff:          s.compOff,
		compNodeIDs:      s.compNodeIDs,
		compOrder:        s.compOrder,
		nodeComp:         s.nodeComp,
		localIdx:         s.localIdx,
		indirectEdges:    s.indirectEdges,
		addrTakenEntries: s.addrTakenEntries,
		pinnedComp:       s.pinnedComp,
	}
}

// newPhaseSchedFromShape rebuilds a scheduler from a retained shape,
// skipping the membership passes, the priority DFS and prepareIndirect.
// Valid only when g's node IDs and cg's component structure are
// identical to the analysis the shape was captured from (the caller
// proves this via the PSG same-shape check and the call graph's
// StructureReused), and when the configuration agrees on the
// result-determining fields (Config.Key equality guarantees it).
func newPhaseSchedFromShape(g *PSG, cg *callgraph.Graph, conf Config, sh *schedShape) *phaseSched {
	s := &phaseSched{
		g:                g,
		cg:               cg,
		conf:             conf,
		workers:          conf.Workers(),
		compOff:          sh.compOff,
		compNodeIDs:      sh.compNodeIDs,
		compOrder:        sh.compOrder,
		nodeComp:         sh.nodeComp,
		localIdx:         sh.localIdx,
		indirectEdges:    sh.indirectEdges,
		addrTakenEntries: sh.addrTakenEntries,
		pinnedComp:       sh.pinnedComp,
		cancel:           conf.cancelCh(),
	}
	if conf.Metrics != nil {
		s.obs1 = newPhaseObs(conf.Metrics, "phase1")
		s.obs2 = newPhaseObs(conf.Metrics, "phase2")
	}
	return s
}

// computePriorities fills compOrder with a per-component DFS postorder
// over the PSG's out-edges: a node appears after every node its edges
// point at (up to cycles). recompute reads exactly those targets, so
// seeding the worklist in this order makes the first sweep over a
// component near-topological — dependencies settle before their
// readers — while the FIFO discipline keeps re-pushes fair across the
// component's routines (cross-routine influence travels by entry
// broadcasts and return-site links, not edges, so no static node order
// captures it; round-robin sweeps converge the mutual recursion).
// Every PSG edge stays within its routine, hence within the routine's
// component, so the DFS never leaves the component.
func (s *phaseSched) computePriorities() {
	g := s.g
	type frame struct{ n, ei int32 }
	seen := make([]bool, len(g.Nodes))
	var stack []frame
	for c := 0; c < s.cg.NumComponents(); c++ {
		order := s.order(c)
		post := 0
		members := s.nodes(c)
		// Per-routine subgraphs are disjoint, so the seed order has two
		// independent degrees of freedom. Within a routine, DFS from the
		// entry nodes (lowest IDs) yields a clean postorder — the
		// measurable win over FIFO. Across the routines of a
		// multi-routine component no static order is topological (they
		// are coupled only through the broadcast machinery), and
		// empirically last-routine-first converges the pinned
		// indirect-call component fastest, matching the old reverse-seed
		// behaviour. So: routine segments in reverse, entry-first DFS
		// within each segment.
		end := len(members)
		for end > 0 {
			r := g.Nodes[members[end-1]].Routine
			segStart := end - 1
			for segStart > 0 && g.Nodes[members[segStart-1]].Routine == r {
				segStart--
			}
			seg := members[segStart:end]
			end = segStart
			for _, root := range seg {
				if seen[root] {
					continue
				}
				seen[root] = true
				stack = append(stack[:0], frame{root, 0})
				for len(stack) > 0 {
					top := len(stack) - 1
					n, ei := stack[top].n, stack[top].ei
					out := g.OutEdges(int(n))
					pushed := false
					for int(ei) < len(out) {
						dst := int32(g.Edges[out[ei]].Dst)
						ei++
						if !seen[dst] {
							stack[top].ei = ei
							seen[dst] = true
							stack = append(stack, frame{dst, 0})
							pushed = true
							break
						}
					}
					if pushed {
						continue
					}
					stack = stack[:top]
					order[post] = s.localIdx[n]
					post++
				}
			}
		}
	}
}

// wlPool recycles worklists across components and phases; Reset re-arms
// one for a component without reallocating, so the steady-state solve
// loop performs no heap allocation at all. The obs.Pool wrapper counts
// hits and misses; Analyze reports them as unstable counters.
var wlPool = obs.NewPool(func() any { return new(dataflow.Worklist) })

// runDirty walks one phase's wave schedule — callee-first for phase 1,
// caller-first for phase 2 — solving the dirty components of each wave
// concurrently on the worker pool and the waves in order. After a wave,
// each solved component is marked resolved, its iteration count feeds
// the phase's component-iterations histogram, and its cutoff runs, which
// may dirty components of later waves. It returns the number of waves
// that solved a component, the total worklist iterations (summed
// deterministically per component) and the aggregate solver CPU time.
//
// A nil cutoff means there is nothing to cut off against: every
// component is dirty, as in a from-scratch analysis. Otherwise each
// component's return-node liveness is snapshotted before the component
// is first solved, for the phase-2 cutoff.
func (s *phaseSched) runDirty(phase obs.Span, phase2 bool, dirty, resolved []bool, cutoff func(c int)) (waves, iters int, cpu time.Duration) {
	schedule, po, solve := s.cg.CalleeFirstWaves(), &s.obs1, (*phaseSched).resolve1
	if phase2 {
		schedule, po, solve = s.cg.CallerFirstWaves(), &s.obs2, (*phaseSched).resolve2
	}
	// One slab holds the dirty components of a wave and their counts,
	// sized by the largest wave.
	most := 0
	for _, wave := range schedule {
		most = max(most, len(wave))
	}
	slab := make([]int, 2*most)
	for wi, wave := range schedule {
		if s.cancelled() {
			break
		}
		todo := slab[:0:most]
		for _, c := range wave {
			if dirty[c] {
				todo = append(todo, c)
				if cutoff != nil {
					s.snapshotRets(c)
				}
			}
		}
		if len(todo) == 0 {
			continue
		}
		waves++
		counts := slab[most : most+len(todo)]
		cpu += s.solveWave(phase, phase2, wi, todo, counts, solve)
		for i, c := range todo {
			iters += counts[i]
			po.compIters.Observe(uint64(counts[i]))
			resolved[c] = true
			if cutoff != nil {
				cutoff(c)
			}
		}
	}
	po.iterations.Add(uint64(iters))
	return waves, iters, cpu
}

// waveSpan and compSpan name the spans solveWave records, per phase.
var (
	waveSpan = [2]string{"phase1 wave", "phase2 wave"}
	compSpan = [2]string{"phase1 component", "phase2 component"}
)

// solveWave solves the components comps of wave wi concurrently on the
// worker pool, storing solve(s, comps[i]) in counts[i], and returns the
// pool's CPU time. solve is a method expression, so passing it
// allocates nothing. When tracing is on, the wave gets a span under phase
// on the pipeline track and each component solve one under the wave on
// its worker's track.
func (s *phaseSched) solveWave(phase obs.Span, phase2 bool, wi int, comps, counts []int, solve func(s *phaseSched, c int) int) time.Duration {
	k := 0
	if phase2 {
		k = 1
	}
	wsp := phase.Begin(waveSpan[k]).Arg("wave", int64(wi)).Arg("components", int64(len(comps)))
	cpu := par.ForEachWorker(len(comps), s.workers, func(w, i int) {
		if s.cancelled() {
			return
		}
		c := comps[i]
		sp := wsp.Worker(w, compSpan[k]).
			Arg("component", int64(c)).
			Arg("nodes", int64(len(s.nodes(c))))
		counts[i] = solve(s, c)
		sp.Arg("iterations", int64(counts[i])).End()
	})
	wsp.End()
	return cpu
}

// prepareIndirect collects the scheduler's §3.5 indirect-call
// machinery: the indirect call-return edges and, in a closed world, the
// primary entry nodes of address-taken routines (function pointers
// denote the primary entrance).
func (s *phaseSched) prepareIndirect() {
	g := s.g
	for i := range g.Edges {
		if g.Edges[i].indirect(g) {
			s.indirectEdges = append(s.indirectEdges, int32(i))
		}
	}
	if s.conf.LinkIndirectCalls && len(s.indirectEdges) > 0 {
		for ri, r := range g.Prog.Routines {
			if r.AddressTaken {
				s.addrTakenEntries = append(s.addrTakenEntries, g.EntryNodes[ri][0])
			}
		}
		if len(s.addrTakenEntries) > 0 {
			s.pinnedComp = s.cg.PinnedComponent()
		}
	}
}

// prepPhase1Comp establishes component c's phase-1 starting state.
// MAY sets start empty and grow; MUST-DEF starts optimistically at All
// and shrinks under intersection, which is what lets recursive and
// mutually recursive routines keep registers that every path through
// the recursion defines. Nodes without outgoing edges (exits) recompute
// to the empty set on their first visit, so the optimism is bounded by
// the real paths. The component's call-return edges start optimistic
// for in-component callees (they converge together, refined downward by
// the entry broadcast) and carry the final converged summaries of
// cross-component callees (those components settled in an earlier
// callee-first wave, or were reused verbatim by a re-analysis;
// phase1Use is the converged phase-1 MAY-USE either way). Indirect
// edges start optimistic in a closed world with address-taken routines,
// folding in those routines' summaries as they converge, and otherwise
// carry the constant calling-standard summary (§3.5). This is exactly
// the state the component has when its wave begins, whatever ran
// before, so solvePhase1 lands on the same fixed point in a
// from-scratch analysis and in a re-analysis.
func (s *phaseSched) prepPhase1Comp(c int) {
	g, conf := s.g, s.conf
	std := callstd.UnknownCallSummary()
	haveAddr := len(s.addrTakenEntries) > 0
	for _, nid := range s.nodes(c) {
		n := &g.Nodes[nid]
		n.MayUse, n.MayDef, n.MustDef = regset.Empty, regset.Empty, regset.All
	}
	for _, nid := range s.nodes(c) {
		for _, eid := range g.OutEdges(int(nid)) {
			e := &g.Edges[eid]
			if e.Kind != EdgeCallReturn {
				continue
			}
			call := &g.Nodes[e.Src]
			if call.CallTarget < 0 {
				switch {
				case conf.LinkIndirectCalls && haveAddr:
					e.MayUse, e.MayDef, e.MustDef = regset.Empty, regset.Empty, regset.All
				default:
					// Open world, or a closed world with no
					// address-taken routine: the constant
					// calling-standard label.
					e.MayUse, e.MayDef, e.MustDef = std.Used, std.Killed, std.Defined
				}
				continue
			}
			entryID := g.EntryNodes[call.CallTarget][call.CallEntry]
			if s.nodeComp[entryID] == int32(c) {
				e.MayUse, e.MayDef, e.MustDef = regset.Empty, regset.Empty, regset.All
				continue
			}
			entry := &g.Nodes[entryID]
			sr := g.SavedRestored[call.CallTarget]
			e.MayUse = entry.phase1Use.Minus(sr)
			e.MayDef = entry.MayDef.Minus(sr)
			e.MustDef = entry.MustDef.Minus(sr)
		}
	}
}

// resolve1 solves component c's phase 1 from its prepared starting
// state and snapshots the converged MAY-USE right away (later-wave preps
// and the summary collection read phase1Use uniformly for reused and
// re-solved components alike). It returns the worklist iterations.
func (s *phaseSched) resolve1(c int) int {
	g := s.g
	s.prepPhase1Comp(c)
	n := s.solvePhase1(c)
	for _, nid := range s.nodes(c) {
		g.Nodes[nid].phase1Use = g.Nodes[nid].MayUse
	}
	return n
}

// solvePhase1 iterates one component's Figure 8 equations to a fixed
// point and returns the number of worklist iterations. Call-return
// edges into components of later waves are labeled once, from the
// converged entry summaries, after the component settles.
func (s *phaseSched) solvePhase1(c int) int {
	g := s.g
	nodes := s.nodes(c)
	if len(nodes) == 0 {
		return 0
	}
	wl := wlPool.Get().(*dataflow.Worklist)
	wl.Reset(len(nodes), nil)
	pinned := c == s.pinnedComp
	var scans, relabels uint64

	// updateIndirect relabels every indirect call-return edge with the
	// closed-world combination of the calling-standard summary and all
	// address-taken routines' (§3.4-filtered) entry summaries. All of
	// those edges and entries live in the pinned component.
	updateIndirect := func() {
		std := callstd.UnknownCallSummary()
		mu, md, msd := std.Used, std.Killed, std.Defined
		for _, id := range s.addrTakenEntries {
			n := &g.Nodes[id]
			sr := g.SavedRestored[n.Routine]
			mu = mu.Union(n.MayUse.Minus(sr))
			md = md.Union(n.MayDef.Minus(sr))
			msd = msd.Intersect(n.MustDef.Minus(sr))
		}
		for _, eid := range s.indirectEdges {
			e := &g.Edges[eid]
			if e.MayUse != mu || e.MayDef != md || e.MustDef != msd {
				e.MayUse, e.MayDef, e.MustDef = mu, md, msd
				relabels++
				wl.Push(int(s.localIdx[e.Src]))
			}
		}
	}

	pops := 0
	drain := func(clamp bool) {
		for !wl.Empty() {
			if pops&(cancelStride-1) == 0 && s.cancelled() {
				return
			}
			n := &g.Nodes[nodes[wl.Pop()]]
			pops++
			scans += uint64(len(g.OutEdges(n.ID)))
			mu, md, msd := g.recompute(n, false, clamp)
			if mu == n.MayUse && md == n.MayDef && msd == n.MustDef {
				continue
			}
			n.MayUse, n.MayDef, n.MustDef = mu, md, msd
			// Propagate to in-neighbours; every PSG edge is intraprocedural,
			// so these are always in this component.
			for _, eid := range g.InEdges(n.ID) {
				if src := g.Edges[eid].Src; s.nodeComp[src] == int32(c) {
					wl.Push(int(s.localIdx[src]))
				}
			}
			// §3.2: entry nodes broadcast their sets to every call-return
			// edge representing a call to this entrance, after filtering
			// saved-and-restored callee-saved registers (§3.4). Only edges
			// inside this component (recursive calls) can still react;
			// edges in caller components are finalized below.
			if n.Kind == NodeEntry {
				sr := g.SavedRestored[n.Routine]
				fu, fd, fm := mu.Minus(sr), md.Minus(sr), msd.Minus(sr)
				for _, eid := range g.CallerEdges[n.Routine][n.EntryIdx] {
					e := &g.Edges[eid]
					if s.nodeComp[e.Src] != int32(c) {
						continue
					}
					if e.MayUse != fu || e.MayDef != fd || e.MustDef != fm {
						e.MayUse, e.MayDef, e.MustDef = fu, fd, fm
						relabels++
						wl.Push(int(s.localIdx[e.Src]))
					}
				}
				if pinned && s.isAddrTakenEntry(n.ID) {
					updateIndirect()
				}
			}
		}
	}

	for _, li := range s.order(c) {
		wl.Push(int(li))
	}
	if pinned {
		updateIndirect() // establish the calling-standard baseline
	}
	drain(false)
	// Grounding pass: MUST-DEF ⊆ MAY-DEF by definition, but a call with
	// no path to a ret-exit (unbounded recursion ahead of every exit)
	// leaves the optimistic intersection at lattice top — vacuously
	// sound, since no path reaches the caller, yet malformed as a value.
	// Clamping during the first descent would poison the greatest
	// fixpoint (MAY-DEF is still transiently small), so the clamp runs
	// as a continuation: from the converged state, the clamped equations
	// only descend, and they land on their own greatest fixpoint — equal
	// to the unclamped one wherever MUST ⊆ MAY already held.
	for _, li := range s.order(c) {
		wl.Push(int(li))
	}
	drain(true)
	pushes, _ := wl.Counts()
	wlPool.Put(wl)
	// Broadcast the converged entry summaries outward. The affected
	// edges belong to caller components, which the callee-first wave
	// order schedules strictly later, so no reader is running yet.
	for _, nid := range nodes {
		n := &g.Nodes[nid]
		if n.Kind != NodeEntry {
			continue
		}
		sr := g.SavedRestored[n.Routine]
		fu, fd, fm := n.MayUse.Minus(sr), n.MayDef.Minus(sr), n.MustDef.Minus(sr)
		for _, eid := range g.CallerEdges[n.Routine][n.EntryIdx] {
			e := &g.Edges[eid]
			if s.nodeComp[e.Src] != int32(c) {
				e.MayUse, e.MayDef, e.MustDef = fu, fd, fm
				relabels++
			}
		}
	}
	s.obs1.pushes.Add(pushes)
	s.obs1.relabels.Add(relabels)
	s.obs1.edgeScans.Add(scans)
	return pops
}

// isAddrTakenEntry reports whether node id is the primary entry node of
// an address-taken routine (the addrTakenEntries list is ascending).
func (s *phaseSched) isAddrTakenEntry(id int) bool {
	for _, e := range s.addrTakenEntries {
		if e == id {
			return true
		}
		if e > id {
			return false
		}
	}
	return false
}

// Phase 2 (§3.3, Figure 10) computes liveness: MAY-USE flows backward
// within each routine over the phase-1 edge labels, and from each
// return site to the exits of the routines that could return there.

// phase2Seed returns the pinned liveness of exit-class nodes:
// unknown-jump pseudo-exits make every register live (§3.5);
// address-taken routines may return to unknown callers, which per the
// calling standard may rely on the return values, the callee-saved
// registers and the dedicated registers.
func (g *PSG) phase2Seed(n *Node) regset.Set {
	if n.Unknown {
		return callstd.UnknownJumpLive()
	}
	if n.Kind == NodeExit && g.Prog.Routines[n.Routine].AddressTaken &&
		g.isRetExit(n) {
		return callstd.Return.Union(callstd.CalleeSaved).
			Union(regset.Of(regset.SP, regset.GP))
	}
	return regset.Empty
}

// isRetExit reports whether an exit node's block ends in ret (halt exits
// terminate the program and return to no caller).
func (g *PSG) isRetExit(n *Node) bool { return isRetBlock(g.Graphs[n.Routine], n.Block) }

// isRetBlock reports whether block ends in ret.
func isRetBlock(graph *cfg.Graph, block int) bool {
	return graph.Terminator(graph.Blocks[block]).Op == isa.OpRet
}

// linkReturnSites populates the PSG's return-site links: liveness at a
// return node flows to the exits of every routine the call could have
// invoked (§3.3). Direct calls link to their callee's exits; indirect
// calls link to every address-taken routine's exits when the
// closed-world option is on.
//
// Both directions — exit → return sites (retSites) and return →
// dependent exits (exitDeps) — are stored CSR: two passes over the call
// nodes count and then fill the windows, replacing the per-exit append
// slices and the int-keyed dependents map with four flat arrays. The
// function is idempotent: it rebuilds the links from scratch each call,
// so the phases can be re-run on one PSG.
func (g *PSG) linkReturnSites(conf Config) {
	n := len(g.Nodes)
	var addrTakenExits []int
	if conf.LinkIndirectCalls {
		for ri, r := range g.Prog.Routines {
			if r.AddressTaken {
				for _, x := range g.ExitNodes[ri] {
					if g.isRetExit(&g.Nodes[x]) {
						addrTakenExits = append(addrTakenExits, x)
					}
				}
			}
		}
	}
	// forEachLink yields every (exit, return-site) pair, in call-node ID
	// order — the same order incremental appends produced — so the CSR
	// windows are ordering-identical to the old per-exit slices.
	forEachLink := func(yield func(exit int, ret int32)) {
		for id := range g.Nodes {
			nd := &g.Nodes[id]
			if nd.Kind != NodeCall {
				continue
			}
			// The call's return node is the destination of its
			// call-return edge.
			ret := int32(-1)
			for _, eid := range g.OutEdges(id) {
				if g.Edges[eid].Kind == EdgeCallReturn {
					ret = int32(g.Edges[eid].Dst)
				}
			}
			if ret < 0 {
				continue
			}
			if nd.CallTarget >= 0 {
				for _, x := range g.ExitNodes[nd.CallTarget] {
					if g.isRetExit(&g.Nodes[x]) {
						yield(x, ret)
					}
				}
			} else {
				for _, x := range addrTakenExits {
					yield(x, ret)
				}
			}
		}
	}

	retStart := make([]int32, n+1)
	total := 0
	forEachLink(func(exit int, ret int32) { retStart[exit+1]++; total++ })
	for i := 0; i < n; i++ {
		retStart[i+1] += retStart[i]
	}
	retIDs := make([]int32, total)
	next := make([]int32, n)
	forEachLink(func(exit int, ret int32) {
		retIDs[retStart[exit]+next[exit]] = ret
		next[exit]++
	})
	g.retStart, g.retSiteIDs = retStart, retIDs

	// Reverse mapping, filled in exit-ID order so each return node's
	// dependent-exit window is ascending.
	depStart := make([]int32, n+1)
	for _, rs := range retIDs {
		depStart[rs+1]++
	}
	for i := 0; i < n; i++ {
		depStart[i+1] += depStart[i]
	}
	depIDs := make([]int32, total)
	for i := range next {
		next[i] = 0
	}
	for x := 0; x < n; x++ {
		for _, rs := range retIDs[retStart[x]:retStart[x+1]] {
			depIDs[depStart[rs]+next[rs]] = int32(x)
			next[rs]++
		}
	}
	g.depStart, g.depExitIDs = depStart, depIDs
}

// resolve2 solves component c's phase 2 (§3.3): node MAY-USE sets
// restart from empty as liveness, while the call-return edge labels of
// phase 1 are retained. A callee's exits read the converged liveness of
// its callers' return nodes, which the caller-first order settles
// strictly earlier. It returns the worklist iterations.
func (s *phaseSched) resolve2(c int) int {
	for _, nid := range s.nodes(c) {
		s.g.Nodes[nid].MayUse = regset.Empty
	}
	return s.solvePhase2(c)
}

// solvePhase2 iterates one component's liveness to a fixed point,
// returning the number of worklist iterations.
func (s *phaseSched) solvePhase2(c int) int {
	g := s.g
	nodes := s.nodes(c)
	if len(nodes) == 0 {
		return 0
	}
	wl := wlPool.Get().(*dataflow.Worklist)
	wl.Reset(len(nodes), nil)
	for _, li := range s.order(c) {
		wl.Push(int(li))
	}
	pops := 0
	var scans uint64
	for !wl.Empty() {
		if pops&(cancelStride-1) == 0 && s.cancelled() {
			break
		}
		n := &g.Nodes[nodes[wl.Pop()]]
		pops++
		scans += uint64(len(g.OutEdges(n.ID)))
		mu, _, _ := g.recompute(n, true, false)
		if mu == n.MayUse {
			continue
		}
		n.MayUse = mu
		for _, eid := range g.InEdges(n.ID) {
			if src := g.Edges[eid].Src; s.nodeComp[src] == int32(c) {
				wl.Push(int(s.localIdx[src]))
			}
		}
		if n.Kind == NodeReturn {
			// Exits in this component re-read us through their
			// retSites; exits in callee components are seeded after
			// this component converges and pull the final value then.
			for _, x := range g.exitDeps(n.ID) {
				if s.nodeComp[x] == int32(c) {
					wl.Push(int(s.localIdx[x]))
				}
			}
		}
	}
	pushes, _ := wl.Counts()
	wlPool.Put(wl)
	s.obs2.pushes.Add(pushes)
	s.obs2.edgeScans.Add(scans)
	return pops
}

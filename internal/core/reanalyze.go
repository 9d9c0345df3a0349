package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/prog"
)

// The analysis engine: one pipeline behind Analyze, Reanalyze and
// ReanalyzeInPlace. A re-analysis turns an edit into a converged
// analysis without paying for the whole program again; Analyze is the
// engine run against the empty analysis, where no routine has a previous
// counterpart, so every routine is dirty and every component is solved.
//
// The engine exploits the structure of the analysis: every PSG edge is
// intraprocedural, cross-routine information moves only through
// entry-summary broadcasts (phase 1) and return-site links (phase 2),
// and each SCC component of the call graph is a self-contained
// fixed-point problem once the components it depends on have converged.
// A component solved from cold against converged inputs lands on the
// same unique fixed point every time (DESIGN.md §6), so an unedited
// component whose inputs did not change may keep its previous converged
// sets verbatim, and an edited or affected component can be re-solved
// in isolation against a mixture of reused and recomputed neighbours —
// the result is byte-identical to Analyze on the patched program.
//
// The dirty set is computed per phase, over the condensation DAG:
//
//   - Phase 1 (callee → caller): the components of edited routines and
//     of routines whose §3.4 saved/restored set changed are seeds.
//     After a component is re-solved, its routines' outward entry
//     summaries are compared against the previous analysis; only when a
//     summary actually changed do the caller components become dirty —
//     the edit's cone is cut off at the first layer of callers that
//     converge to the same summaries.
//   - Phase 2 (caller → callee): every component re-solved in phase 1
//     (its node MAY-USE sets now hold phase-1 values, not liveness),
//     plus the components of the edited routines' previous and current
//     callees (their return-site link structure changed), plus — in a
//     closed world — the address-taken components when anything about
//     indirect call sites changed. The cutoff compares each re-solved
//     return node's liveness against a snapshot taken before the
//     component was first overwritten, and dirties the callee
//     components only on a real change.
//
// Routine identity is positional: routine ri of the patched program is
// compared by content hash (prog.Routine.Hash) against routine ri of
// the previous program. Clean routines keep their CFGs, call-graph edge
// scans, §3.4 frame facts and converged PSG ranges.
//
// The two re-analysis entry points differ only in where the result's
// storage lives. Reanalyze leaves prev intact: the result starts from
// copies of prev's node and edge slabs and per-routine tables (CFGs,
// summaries, body hashes). ReanalyzeInPlace consumes prev: the result
// takes over prev's own slabs and tables and writes the edit into them,
// which makes an edit O(edit) instead of paying an O(program) copy.
// Everything derived from the slab layout — the call graph, the frame
// facts and §3.4 sets, the CSR adjacency and index lists, the
// return-site links, the scheduler shape — may be shared with older
// analyses of a re-analysis chain, so it is shared when unchanged and
// replaced, never written in place, when not.
//
// The engine makes one structural decision. An edit is shape-preserving
// when every routine keeps the same PSG nodes and edges, so no node or
// edge ID moves: a body edit that leaves control flow and call sites
// alone, including one that deletes instructions that neither branch
// nor call, as a compacted dead-code round does. Block IDs may move:
// emptying a fall-through block renumbers the blocks after it, and the
// rebuilt nodes carry their new blocks. The dirty routines' ranges are
// then rebuilt in the destination slabs, verified against their
// previous structure, and every layout-derived structure is kept.
// Otherwise — and always for Analyze — the general path lays out fresh
// slabs (layoutPSG), copying clean routines' ranges from prev with their
// IDs shifted to the new offsets and building the rest, and derives the
// lists, bounds and adjacency from the slabs (index).

// IncrementalStats records what a re-analysis actually did: how much of
// the previous analysis it reused and how much it re-solved. The
// daemon's spike.v2 patch endpoint surfaces these as provenance.
type IncrementalStats struct {
	// DirtyRoutines counts routines whose body hash differs from the
	// previous program (including routines the patch added).
	DirtyRoutines int

	// ShapePreserving reports that the edit kept every routine's PSG
	// nodes and edges, so the dirty ranges were rebuilt inside the
	// slabs and the layout-derived structures kept; false means the
	// general re-layout path ran.
	ShapePreserving bool

	// ResolvedComponents counts call-graph components re-solved by at
	// least one phase; ReusedComponents counts those whose converged
	// sets were carried over from the previous analysis untouched.
	// The two sum to Stats.SCCComponents.
	ResolvedComponents int
	ReusedComponents   int

	// Phase1Components and Phase2Components count the components each
	// phase re-solved (a component re-solved by phase 1 is always
	// re-solved by phase 2 as well).
	Phase1Components int
	Phase2Components int
}

// Reanalyze computes the analysis of patched, reusing the converged
// results of prev for everything an edit cannot have affected. The
// result is byte-identical — summaries, converged PSG sets, structural
// counts — to Analyze(patched, opts...); only timing and iteration
// statistics differ, and Incremental records the reuse achieved.
//
// The options must agree with prev's on the result-determining fields
// (Config.Key); otherwise a *ConfigMismatchError is returned. prev is
// not mutated and both analyses remain independently queryable.
func Reanalyze(prev *Analysis, patched *prog.Program, opts ...Option) (*Analysis, error) {
	return ReanalyzeContext(context.Background(), prev, patched, opts...)
}

// ReanalyzeContext is Reanalyze under a context, with the same
// cancellation points as AnalyzeContext.
func ReanalyzeContext(ctx context.Context, prev *Analysis, patched *prog.Program, opts ...Option) (*Analysis, error) {
	return reanalyze(ctx, prev, patched, false, opts)
}

// ReanalyzeInPlace is Reanalyze for a caller that never uses prev
// again: the result takes over prev's slabs and per-routine tables
// instead of copying them, so an edit costs O(edit) work and almost no
// allocation. The result is byte-identical to Analyze(patched,
// opts...). prev is consumed by the call, successful or not, except on
// a *ConfigMismatchError, which is returned before anything is touched.
//
// Use Reanalyze when older analyses must stay queryable (the daemon's
// version cache does); use ReanalyzeInPlace for an edit loop that only
// ever wants the latest analysis.
func ReanalyzeInPlace(prev *Analysis, patched *prog.Program, opts ...Option) (*Analysis, error) {
	return reanalyze(context.Background(), prev, patched, true, opts)
}

// reanalyze is the engine behind Analyze and both Reanalyze entry
// points. inPlace lets the result take over prev's storage. Against the
// empty analysis (no routines), which is how Analyze calls it, there is
// nothing to diff, reuse or cut off: every routine is dirty, the general
// layout path builds the whole PSG, every component is solved, and the
// spans, error prefix and result are Analyze's.
func reanalyze(ctx context.Context, prev *Analysis, patched *prog.Program, inPlace bool, opts []Option) (*Analysis, error) {
	conf := NewConfig(opts...)
	conf.ctx = ctx
	nNew, nOld := len(patched.Routines), len(prev.Prog.Routines)
	fresh := nOld == 0
	name := "reanalyze"
	if fresh {
		name = "analyze"
	}
	// cancelled is the between-stage cancellation point; the wave walk
	// adds its own, per wave and inside the solve loops.
	cancelled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s: %w", name, err)
		}
		return nil
	}
	if err := cancelled(); err != nil {
		return nil, err
	}
	if fresh {
		if err := patched.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	} else if got, want := conf.Key(), prev.Config.Key(); got != want {
		return nil, &ConfigMismatchError{Want: want, Got: got}
	}
	workers := conf.Workers()
	a := &Analysis{Prog: patched, Config: conf}
	a.Stats.Parallelism = workers
	// own: the result takes over prev's slabs and per-routine tables,
	// which needs an unchanged routine count; otherwise it works on
	// copies.
	own := inPlace && nNew == nOld

	// Pool baselines: the worklist and def-use pools are process
	// globals, so this run's hit/miss telemetry is the delta.
	var wlGets0, wlNews0, duGets0, duNews0 uint64
	if conf.Metrics != nil {
		wlGets0, wlNews0 = wlPool.Stats()
		duGets0, duNews0 = defusePool.Stats()
	}
	// Analyze's span and a re-analysis's share every stage but "diff".
	asp := conf.Tracer.Begin(name).Arg("routines", int64(nNew))
	if fresh {
		asp.Arg("workers", int64(workers))
	}
	defer asp.End()

	// ---- diff ----------------------------------------------------------
	var clean []bool
	var dirty []int
	if fresh {
		dirty = allRoutines(nNew)
	} else {
		clean, dirty = a.diff(asp, prev, own)
		if err := validatePatched(patched, prev, dirty); err != nil {
			return nil, err
		}
		if err := cancelled(); err != nil {
			return nil, err
		}
	}

	// ---- per-routine artifacts: CFGs and DEF/UBD -----------------------
	// The replaced CFGs are kept aside for the shape and count deltas,
	// which only an unchanged routine count takes: in place, the table
	// they live in is the result's.
	var oldGraphs []*cfg.Graph
	if nNew == nOld {
		oldGraphs = make([]*cfg.Graph, len(dirty))
		for i, ri := range dirty {
			oldGraphs[i] = prev.Graphs[ri]
		}
	}
	a.Graphs = ownOrCopy(own, prev.Graphs, nNew)
	a.buildGraphs(asp, workers, dirty)
	if err := cancelled(); err != nil {
		return nil, err
	}

	// ---- call graph ----------------------------------------------------
	prevCG := prev.CallGraph()
	var cg *callgraph.Graph
	a.Stats.CallGraphBuild = stage(asp, "callgraph build", func(sp obs.Span) {
		cg = callgraph.BuildIncremental(patched, prevCG, clean,
			callgraph.WithIndirectPinning(conf.LinkIndirectCalls),
			callgraph.WithObs(sp, conf.Metrics))
	})
	a.callGraph = cg
	a.Stats.SCCComponents = cg.NumComponents()

	// ---- PSG assembly --------------------------------------------------
	shapeSame := nNew == nOld
	var srShared, exitsKept bool
	a.Stats.PSGBuild = stage(asp, "psg build", func(sp obs.Span) {
		start := time.Now()
		var tasks []labelTask
		if shapeSame {
			tasks, exitsKept, shapeSame = a.assembleSameShape(prev, dirty, oldGraphs, own, conf)
		}
		if !shapeSame {
			ssp := sp.Begin("psg structure")
			a.PSG, tasks = layoutPSG(patched, a.Graphs, conf, prev.PSG, clean)
			ssp.Arg("nodes", int64(len(a.PSG.Nodes))).Arg("edges", int64(len(a.PSG.Edges))).End()
		}
		cpu := time.Since(start) + a.PSG.labelAll(tasks, conf, sp)
		srCPU, shared := a.PSG.computeSavedRestored(prev.PSG, cg, dirty, workers, sp)
		srShared = shared
		a.Stats.PSGBuildCPU = cpu + srCPU
		shape := int64(0)
		if shapeSame {
			shape = 1
		}
		sp.Arg("shape_preserving", shape)
	})
	if err := cancelled(); err != nil {
		return nil, err
	}

	// Seed dirtiness: edited routines and routines whose §3.4 set moved
	// (their outward-facing entry summaries are filtered differently now,
	// even if the body is unchanged).
	g := a.PSG
	nComp := cg.NumComponents()
	// Per-component marks, carved from one allocation: phase 1's dirty
	// and resolved sets, then phase 2's.
	marks := make([]bool, 4*nComp)
	dirtyComp, resolved1 := marks[:nComp:nComp], marks[nComp:2*nComp:2*nComp]
	dirty2, resolved2 := marks[2*nComp:3*nComp:3*nComp], marks[3*nComp:]
	for _, ri := range dirty {
		dirtyComp[cg.Component(ri)] = true
	}
	if !srShared {
		// srShared means the whole SavedRestored slice is prev's — no
		// per-routine comparison can fire.
		for ri := 0; ri < nNew && ri < nOld; ri++ {
			if g.SavedRestored[ri] != prev.PSG.SavedRestored[ri] {
				dirtyComp[cg.Component(ri)] = true
			}
		}
	}

	// In a closed world the indirect call-return labels aggregate every
	// address-taken routine's summary. When the address-taken set itself
	// changed, components holding indirect call sites must re-derive
	// their labels even if no member routine was edited.
	aggChanged := false
	if conf.LinkIndirectCalls && !fresh {
		aggChanged = !slices.Equal(cg.AddressTaken(), prevCG.AddressTaken())
		for _, ri := range dirty {
			if aggChanged {
				break
			}
			aggChanged = patched.Routines[ri].AddressTaken ||
				(ri < nOld && prev.Prog.Routines[ri].AddressTaken)
		}
		if aggChanged {
			for ri := 0; ri < nNew; ri++ {
				if cg.HasIndirectCall(ri) {
					dirtyComp[cg.Component(ri)] = true
				}
			}
		}
	}

	// The scheduler's shape (component maps, seed orders, indirect
	// arrays) is a pure function of structure a shape-preserving edit
	// with an unchanged call graph leaves alone; reuse prev's when
	// possible instead of re-deriving the per-component DFS orders.
	// Restored analyses carry no shape and get a fresh one.
	var sched *phaseSched
	if shapeSame && cg.StructureReused() && prev.schedShape != nil {
		sched = newPhaseSchedFromShape(g, cg, conf, prev.schedShape)
	} else {
		sched = newPhaseSched(g, cg, conf)
		sched.prepareIndirect()
	}
	a.schedShape = sched.shape()

	// The cutoffs stop a re-analysis at the first layer of components
	// whose inputs did not move. A from-scratch analysis marks every
	// component dirty up front, so it has none, and no return-node
	// snapshots for them to compare against.
	var cutoff1, cutoff2 func(c int)
	if !fresh {
		sched.retAt = make([]int32, nComp)
		// Phase 1: dirty the callers of routines whose outward summary
		// moved. Callers live in strictly later callee-first waves (or
		// this component, already converged), so the marks land ahead of
		// the walk.
		cutoff1 = func(c int) {
			for _, ri := range cg.Members(c) {
				if !a.entrySummaryChanged(prev, ri) {
					continue
				}
				for _, caller := range cg.Callers(ri) {
					if cc := cg.Component(caller); !resolved1[cc] {
						dirtyComp[cc] = true
					}
				}
			}
		}
		// Phase 2: a callee's exits re-read our return nodes through
		// their return-site links; only a return node whose liveness
		// moved can disturb them. Callee components sit in strictly later
		// caller-first waves (or in this one, already converged).
		cutoff2 = func(c int) {
			snap := sched.retSnapshot(c)
			for _, nid := range sched.nodes(c) {
				n := &g.Nodes[nid]
				if n.Kind != NodeReturn {
					continue
				}
				changed := !clean[n.Routine] || snap[0] != n.MayUse
				snap = snap[1:]
				if !changed {
					continue
				}
				for _, x := range g.exitDeps(n.ID) {
					if xc := sched.nodeComp[x]; int(xc) != c && !resolved2[xc] {
						dirty2[xc] = true
					}
				}
			}
		}
	}

	// ---- phase 1 -------------------------------------------------------
	a.Stats.Phase1 = stage(asp, "phase1", func(sp obs.Span) {
		a.Stats.Phase1Waves, a.Stats.Phase1Iterations, a.Stats.Phase1CPU = sched.runDirty(sp, false, dirtyComp, resolved1, cutoff1)
		sp.Arg("waves", int64(a.Stats.Phase1Waves)).Arg("iterations", int64(a.Stats.Phase1Iterations))
	})
	if err := cancelled(); err != nil {
		return nil, err
	}

	// ---- phase 2 -------------------------------------------------------
	a.Stats.Phase2 = stage(asp, "phase2", func(sp obs.Span) {
		if shapeSame && a.linksUnchanged(prev, dirty, exitsKept) {
			pg := prev.PSG
			g.retStart, g.retSiteIDs = pg.retStart, pg.retSiteIDs
			g.depStart, g.depExitIDs = pg.depStart, pg.depExitIDs
		} else {
			g.linkReturnSites(conf)
		}
		// Every component phase 1 re-solved holds phase-1 values in its
		// node MAY-USE sets, not liveness.
		copy(dirty2, resolved1)
		if !fresh {
			markRelinked(dirty2, prev, a, dirty, aggChanged)
		}
		a.Stats.Phase2Waves, a.Stats.Phase2Iterations, a.Stats.Phase2CPU = sched.runDirty(sp, true, dirty2, resolved2, cutoff2)
		sp.Arg("waves", int64(a.Stats.Phase2Waves)).Arg("iterations", int64(a.Stats.Phase2Iterations))
	})
	if err := cancelled(); err != nil {
		return nil, err
	}

	// ---- finish --------------------------------------------------------
	stage(asp, "summaries", func(obs.Span) {
		// Summaries of unresolved components are byte-equal to prev's: their
		// converged node sets were carried over verbatim and their
		// SavedRestored did not move (a moved set seeds phase-1 dirtiness).
		// Every dirty routine, the patch's added ones included, sits in a
		// resolved component, and phase 2 re-solves every component phase 1
		// did.
		a.Summaries = ownOrCopy(own, prev.Summaries, nNew)
		for c := 0; c < nComp; c++ {
			if resolved2[c] {
				for _, ri := range cg.Members(c) {
					a.Summaries[ri] = a.collectSummary(ri)
				}
			}
		}
		if !fresh {
			a.Incremental = incrementalStats(len(dirty), shapeSame, resolved1, resolved2)
		}
		a.collectCountsIncremental(prev, dirty, oldGraphs, shapeSame)
		a.prepareQueries()
	})
	if inc := a.Incremental; inc != nil {
		asp.Arg("resolved_components", int64(inc.ResolvedComponents)).
			Arg("reused_components", int64(inc.ReusedComponents))
	}
	a.publishMetrics(wlGets0, wlNews0, duGets0, duNews0)
	return a, nil
}

// allRoutines returns the indices of n routines, every one dirty.
func allRoutines(n int) []int {
	all := make([]int, n)
	for ri := range all {
		all[ri] = ri
	}
	return all
}

// diff records the "diff" stage: it marks each routine of a.Prog clean
// when routine ri of prev's program has the same body, and returns the
// clean marks and the dirty routines in index order. Pointer identity
// short-circuits hashing: a program produced by prog.ShallowClone plus
// clone-on-edit shares every untouched *Routine with prev's, so only the
// handful of replaced routines are hashed at all. Routines that are
// pointer-distinct but hash-equal (a rewrite landing on identical bytes,
// or a deep Clone) are still clean. The result adopts the hash table
// assembled here, so chained re-analyses never rescan clean bodies.
func (a *Analysis) diff(asp obs.Span, prev *Analysis, own bool) (clean []bool, dirty []int) {
	dsp := asp.Begin("diff")
	nOld := len(prev.Prog.Routines)
	prevHashes := prev.BodyHashes()
	hashes := ownOrCopy(own, prevHashes, len(a.Prog.Routines))
	clean = make([]bool, len(a.Prog.Routines))
	for ri, r := range a.Prog.Routines {
		if ri < nOld && r == prev.Prog.Routines[ri] {
			clean[ri] = true
			continue
		}
		h := r.Hash()
		if ri < nOld && h == prevHashes[ri] {
			clean[ri] = true
			continue
		}
		dirty = append(dirty, ri)
		hashes[ri] = h
	}
	a.adoptBodyHashes(hashes)
	dsp.Arg("dirty_routines", int64(len(dirty))).End()
	asp.Arg("dirty_routines", int64(len(dirty)))
	return clean, dirty
}

// markRelinked marks for phase 2 the components whose return-site link
// structure an edit changed: the previous and the current callees of
// every edited routine (the edit may have added or removed call sites),
// the callees of removed routines, and — in a closed world, when
// anything about indirect call sites or the address-taken set changed —
// every address-taken component, since indirect return sites link to all
// of their exits.
func markRelinked(dirty2 []bool, prev, a *Analysis, dirty []int, aggChanged bool) {
	cg, prevCG := a.callGraph, prev.callGraph
	nNew, nOld := len(a.Prog.Routines), len(prev.Prog.Routines)
	markCallees := func(pg *callgraph.Graph, ri int) {
		for _, t := range pg.Callees(ri) {
			if t < nNew {
				dirty2[cg.Component(t)] = true
			}
		}
	}
	for _, ri := range dirty {
		markCallees(cg, ri)
		if ri < nOld {
			markCallees(prevCG, ri)
		}
	}
	for ri := nNew; ri < nOld; ri++ {
		markCallees(prevCG, ri)
	}
	if !a.Config.LinkIndirectCalls {
		return
	}
	indirectRets := aggChanged
	for _, ri := range dirty {
		indirectRets = indirectRets || cg.HasIndirectCall(ri) || (ri < nOld && prevCG.HasIndirectCall(ri))
	}
	for ri := nNew; ri < nOld; ri++ {
		indirectRets = indirectRets || prevCG.HasIndirectCall(ri)
	}
	if indirectRets {
		for _, ri := range cg.AddressTaken() {
			dirty2[cg.Component(ri)] = true
		}
	}
}

// incrementalStats counts a re-analysis's reuse from the per-component
// resolved marks of the two phases.
func incrementalStats(dirtyRoutines int, shapeSame bool, resolved1, resolved2 []bool) *IncrementalStats {
	inc := &IncrementalStats{DirtyRoutines: dirtyRoutines, ShapePreserving: shapeSame}
	for c := range resolved1 {
		if resolved1[c] {
			inc.Phase1Components++
		}
		if resolved2[c] {
			inc.Phase2Components++
		}
		if resolved1[c] || resolved2[c] {
			inc.ResolvedComponents++
		}
	}
	inc.ReusedComponents = len(resolved1) - inc.ResolvedComponents
	return inc
}

// ownOrCopy returns the result's version of one of prev's per-routine
// tables: prev's own when the result takes over prev's storage, else a
// copy resized to n entries.
func ownOrCopy[T any](own bool, prev []T, n int) []T {
	if own {
		return prev
	}
	t := make([]T, n)
	copy(t, prev)
	return t
}

// validatePatched checks the structural invariants an edit can break
// without paying for a full Validate: the edited routines themselves,
// plus their direct callers (whose entry-selector immediates must still
// be in range if the edit changed an entrance list). When the routine
// count shrank, clean routines may suddenly target removed indices, so
// the whole program is validated.
func validatePatched(patched *prog.Program, prev *Analysis, dirty []int) error {
	nNew, nOld := len(patched.Routines), len(prev.Prog.Routines)
	if nNew < nOld {
		if err := patched.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		return nil
	}
	if nNew == 0 {
		return fmt.Errorf("core: prog: program has no routines")
	}
	if patched.Entry < 0 || patched.Entry >= nNew {
		return fmt.Errorf("core: prog: entry routine index %d out of range", patched.Entry)
	}
	need := make([]bool, nNew)
	for _, ri := range dirty {
		need[ri] = true
		if ri < nOld {
			for _, c := range prev.CallGraph().Callers(ri) {
				need[c] = true
			}
		}
	}
	for ri, n := range need {
		if !n {
			continue
		}
		if err := patched.ValidateRoutine(ri); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// assembleSameShape is the shape-preserving path. It rebuilds each dirty
// routine's node and edge ranges inside the destination slabs — prev's
// own when own, copies otherwise — through capacity-clamped views, and
// verifies each rebuilt range against a copy of the range it replaced.
// On success the new PSG keeps prev's CSR adjacency, entry/exit index
// lists, caller-edge registrations and slab bounds: all are pure
// functions of the structure just proven unchanged. Block IDs are not
// part of that structure: an edit that empties a block renumbers the
// blocks after it, and the rebuilt nodes carry their new blocks. It
// returns the dirty routines' labeling tasks, and whether every rebuilt
// exit kept its terminator class (ret or halt, read from the old block
// in oldGraphs, the replaced CFGs aligned with dirty): the return-site
// links depend on it, and only here are the replaced nodes still at
// hand.
//
// On a mismatch it reports false, leaving the dirty ranges of the
// destination slabs (in place: of prev's) partly rebuilt. The clamp
// keeps every clean range intact, and the general path reads only
// clean ranges from prev, so it can take over within the same call.
func (a *Analysis) assembleSameShape(prev *Analysis, dirty []int, oldGraphs []*cfg.Graph, own bool, conf Config) (tasks []labelTask, exitsKept, ok bool) {
	pg := prev.PSG
	nodes, edges := pg.Nodes, pg.Edges
	if !own {
		nodes, edges = slices.Clone(nodes), slices.Clone(edges)
	}
	nodeStart, edgeStart := pg.nodeStart, pg.edgeStart
	var bakN []Node
	var bakE []Edge
	var scratch buildScratch
	tasks = make([]labelTask, 0, len(dirty))
	exitsKept = true
	for i, ri := range dirty {
		nlo, nhi := int(nodeStart[ri]), int(nodeStart[ri+1])
		elo, ehi := int(edgeStart[ri]), int(edgeStart[ri+1])
		bakN = append(bakN[:0], nodes[nlo:nhi]...)
		bakE = append(bakE[:0], edges[elo:ehi]...)
		// newNode and addEdge extend into spare capacity assuming zeroed
		// memory.
		clear(nodes[nlo:nhi])
		clear(edges[elo:ehi])
		v := &PSG{
			Prog:   a.Prog,
			Graphs: a.Graphs,
			Nodes:  nodes[:nlo:nhi],
			Edges:  edges[:elo:ehi],
		}
		tasks = append(tasks, labelTask{})
		v.buildRoutine(&tasks[len(tasks)-1], ri, conf, &scratch)
		if len(v.Nodes) != nhi || len(v.Edges) != ehi ||
			!sameStructure(nodes[nlo:nhi], bakN, edges[elo:ehi], bakE) {
			releaseTasks(tasks)
			return nil, false, false
		}
		for x := nlo; x < nhi; x++ {
			if n := &nodes[x]; n.Kind == NodeExit && !n.Unknown &&
				isRetBlock(a.Graphs[ri], n.Block) != isRetBlock(oldGraphs[i], bakN[x-nlo].Block) {
				exitsKept = false
			}
		}
	}
	a.PSG = &PSG{
		Prog:        a.Prog,
		Graphs:      a.Graphs,
		Nodes:       nodes,
		Edges:       edges,
		outStart:    pg.outStart,
		inStart:     pg.inStart,
		outEdgeIDs:  pg.outEdgeIDs,
		inEdgeIDs:   pg.inEdgeIDs,
		EntryNodes:  pg.EntryNodes,
		ExitNodes:   pg.ExitNodes,
		CallerEdges: pg.CallerEdges,
		nodeStart:   nodeStart,
		edgeStart:   edgeStart,
	}
	return tasks, exitsKept, true
}

// sameStructure reports whether a rebuilt routine range has exactly the
// nodes and edges of the range it replaced (IDs agree by construction:
// the rebuild appended at the old offsets). Blocks may differ.
func sameStructure(nodes, oldNodes []Node, edges, oldEdges []Edge) bool {
	for i := range nodes {
		n, p := &nodes[i], &oldNodes[i]
		if n.Kind != p.Kind || n.EntryIdx != p.EntryIdx ||
			n.CallTarget != p.CallTarget || n.CallEntry != p.CallEntry ||
			n.Unknown != p.Unknown {
			return false
		}
	}
	for i := range edges {
		e, p := &edges[i], &oldEdges[i]
		if e.Kind != p.Kind || e.Src != p.Src || e.Dst != p.Dst {
			return false
		}
	}
	return true
}

// linksUnchanged reports whether prev's return-site links still describe
// a shape-preserving edit's PSG. Beyond the structure they depend on
// each exit's terminator (ret links, halt does not) and, in a closed
// world, on the address-taken flags; a body edit can change either
// without moving a single node. exitsKept is assembleSameShape's verdict
// on the terminators: only it still holds the replaced exit nodes, whose
// blocks index the replaced CFGs.
func (a *Analysis) linksUnchanged(prev *Analysis, dirty []int, exitsKept bool) bool {
	if !exitsKept {
		return false
	}
	if !a.Config.LinkIndirectCalls {
		return true
	}
	for _, ri := range dirty {
		if a.Prog.Routines[ri].AddressTaken != prev.Prog.Routines[ri].AddressTaken {
			return false
		}
	}
	return true
}

// collectCountsIncremental fills the structural counts from prev's by
// per-dirty-routine deltas, avoiding the O(routines) CFG walks. The
// result is exactly collectCounts' — every term is a per-routine sum
// and clean routines share their graphs with prev — so it falls back to
// the full collection only when the routine count changed (positional
// deltas stop lining up then). A shape-preserving PSG differs from
// prev's footprint only in its return-site links.
func (a *Analysis) collectCountsIncremental(prev *Analysis, dirty []int, oldGraphs []*cfg.Graph, shapeSame bool) {
	nNew, nOld := len(a.Prog.Routines), len(prev.Prog.Routines)
	if nNew != nOld {
		a.collectCounts()
		return
	}
	st, ps := &a.Stats, &prev.Stats
	st.Routines = nNew
	st.Instructions = ps.Instructions
	st.BasicBlocks = ps.BasicBlocks
	st.CFGArcs = ps.CFGArcs
	bytes := int64(ps.GraphBytes)
	if shapeSame {
		bytes += int64(a.PSG.linkFootprint()) - int64(prev.PSG.linkFootprint())
	} else {
		bytes += int64(a.PSG.MemoryFootprint()) - int64(prev.PSG.MemoryFootprint())
	}
	for i, ri := range dirty {
		st.Instructions += len(a.Prog.Routines[ri].Code) - len(prev.Prog.Routines[ri].Code)
		ng, og := a.Graphs[ri], oldGraphs[i]
		st.BasicBlocks += len(ng.Blocks) - len(og.Blocks)
		st.CFGArcs += ng.NumArcs() - og.NumArcs()
		bytes += int64(ng.MemoryFootprint()) - int64(og.MemoryFootprint())
	}
	st.PSGNodes = a.PSG.NumNodes()
	st.PSGEdges = a.PSG.NumEdges()
	st.GraphBytes = uint64(bytes)
}

// entrySummaryChanged compares routine ri's outward entry summary — the
// §3.4-filtered sets its callers' edge labels are built from — against
// the previous analysis. prev.Summaries stores exactly those filtered
// sets, so the comparison needs no recomputation on the prev side.
func (a *Analysis) entrySummaryChanged(prev *Analysis, ri int) bool {
	if ri >= len(prev.Summaries) {
		return true
	}
	ps := &prev.Summaries[ri]
	entries := a.PSG.EntryNodes[ri]
	if len(entries) != len(ps.CallUsed) {
		return true
	}
	sr := a.PSG.SavedRestored[ri]
	for e, nid := range entries {
		n := &a.PSG.Nodes[nid]
		if n.phase1Use.Minus(sr) != ps.CallUsed[e] ||
			n.MustDef.Minus(sr) != ps.CallDefined[e] ||
			n.MayDef.Minus(sr) != ps.CallKilled[e] {
			return true
		}
	}
	return false
}

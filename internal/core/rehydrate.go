package core

import (
	"context"
	"fmt"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/regset"
)

// SavedState is the pointer-free image of a converged analysis: flat,
// columnar copies of everything the solver computed — the PSG slabs
// with their converged sets, the §3.4 frame facts, the callgraph
// condensation and wave schedules — plus the option key and per-routine
// body hashes that pin what the state is valid for. The summaries are
// not stored: they are read off the node slab.
//
// Export produces one; Rehydrate turns one back into a working
// *Analysis without re-running the solver. internal/snapshot gives the
// struct a versioned binary encoding; keeping the layout columnar means
// that encoding is a sequence of fixed-width array writes, so decoding
// is array reads — no per-object graph rebuilding.
type SavedState struct {
	// OptionKey is Config.Key() of the configuration the analysis ran
	// under; Rehydrate refuses a different key with ConfigMismatchError.
	OptionKey string

	// BodyHashes are the per-routine content hashes (prog.Routine.Hash)
	// of the analyzed program; Rehydrate refuses a program whose bodies
	// differ with ProgramMismatchError. Reanalyze then diffs future
	// patches against them.
	BodyHashes []uint64

	// Condensation and wave schedules, persisted so a restore can prove
	// the state is consistent with the program it claims to describe
	// (the callgraph is rebuilt from the program and compared).
	Components [][]int32
	CalleeWave []int32
	CallerWave []int32

	// PSG node slab, one column per field. The sets are the converged
	// solution: MayUse holds phase-2 liveness, Phase1Use the phase-1
	// snapshot, MayDef/MustDef the phase-1 kill/define results.
	NodeKind       []uint8
	NodeRoutine    []int32
	NodeBlock      []int32
	NodeEntryIdx   []int32
	NodeCallTarget []int32
	NodeCallEntry  []int32
	NodeUnknown    []bool
	NodeMayUse     []regset.Set
	NodeMayDef     []regset.Set
	NodeMustDef    []regset.Set
	NodePhase1Use  []regset.Set

	// PSG edge slab. Flow-edge labels are the §3.2 transfer functions;
	// call-return edge labels are the converged callee summaries.
	EdgeKind    []uint8
	EdgeSrc     []int32
	EdgeDst     []int32
	EdgeMayUse  []regset.Set
	EdgeMayDef  []regset.Set
	EdgeMustDef []regset.Set

	// Per-routine §3.4 results and the body facts behind them, so a
	// restored analysis can serve as a Reanalyze warm start.
	SavedRestored    []regset.Set
	FrameClean       []bool
	FrameHasIndirect []bool
	FrameLocalSaved  []regset.Set
}

// Export copies the analysis's converged state into a SavedState. The
// copy shares nothing with the Analysis; mutating either afterwards
// does not affect the other.
func (a *Analysis) Export() *SavedState {
	g := a.PSG
	cg := a.callGraph
	st := &SavedState{
		OptionKey:  a.Config.Key(),
		BodyHashes: append([]uint64(nil), a.BodyHashes()...),

		NodeKind:       make([]uint8, len(g.Nodes)),
		NodeRoutine:    make([]int32, len(g.Nodes)),
		NodeBlock:      make([]int32, len(g.Nodes)),
		NodeEntryIdx:   make([]int32, len(g.Nodes)),
		NodeCallTarget: make([]int32, len(g.Nodes)),
		NodeCallEntry:  make([]int32, len(g.Nodes)),
		NodeUnknown:    make([]bool, len(g.Nodes)),
		NodeMayUse:     make([]regset.Set, len(g.Nodes)),
		NodeMayDef:     make([]regset.Set, len(g.Nodes)),
		NodeMustDef:    make([]regset.Set, len(g.Nodes)),
		NodePhase1Use:  make([]regset.Set, len(g.Nodes)),

		EdgeKind:    make([]uint8, len(g.Edges)),
		EdgeSrc:     make([]int32, len(g.Edges)),
		EdgeDst:     make([]int32, len(g.Edges)),
		EdgeMayUse:  make([]regset.Set, len(g.Edges)),
		EdgeMayDef:  make([]regset.Set, len(g.Edges)),
		EdgeMustDef: make([]regset.Set, len(g.Edges)),

		SavedRestored:    append([]regset.Set(nil), g.SavedRestored...),
		FrameClean:       make([]bool, len(g.frames)),
		FrameHasIndirect: make([]bool, len(g.frames)),
		FrameLocalSaved:  make([]regset.Set, len(g.frames)),
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		st.NodeKind[i] = uint8(n.Kind)
		st.NodeRoutine[i] = int32(n.Routine)
		st.NodeBlock[i] = int32(n.Block)
		st.NodeEntryIdx[i] = int32(n.EntryIdx)
		st.NodeCallTarget[i] = int32(n.CallTarget)
		st.NodeCallEntry[i] = int32(n.CallEntry)
		st.NodeUnknown[i] = n.Unknown
		st.NodeMayUse[i] = n.MayUse
		st.NodeMayDef[i] = n.MayDef
		st.NodeMustDef[i] = n.MustDef
		st.NodePhase1Use[i] = n.phase1Use
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		st.EdgeKind[i] = uint8(e.Kind)
		st.EdgeSrc[i] = int32(e.Src)
		st.EdgeDst[i] = int32(e.Dst)
		st.EdgeMayUse[i] = e.MayUse
		st.EdgeMayDef[i] = e.MayDef
		st.EdgeMustDef[i] = e.MustDef
	}
	for i, f := range g.frames {
		st.FrameClean[i] = f.Clean
		st.FrameHasIndirect[i] = f.HasIndirect
		st.FrameLocalSaved[i] = f.LocalSaved
	}
	st.Components = make([][]int32, cg.NumComponents())
	st.CalleeWave = make([]int32, cg.NumComponents())
	st.CallerWave = make([]int32, cg.NumComponents())
	for c := 0; c < cg.NumComponents(); c++ {
		ms := cg.Members(c)
		col := make([]int32, len(ms))
		for i, ri := range ms {
			col[i] = int32(ri)
		}
		st.Components[c] = col
		st.CalleeWave[c] = int32(cg.CalleeFirstWave(c))
		st.CallerWave[c] = int32(cg.CallerFirstWave(c))
	}
	return st
}

// StateError reports a malformed or internally inconsistent SavedState:
// mismatched column lengths, out-of-range indices, or a condensation
// that does not match the program's. A StateError means the state
// cannot be trusted; the caller should fall back to a full analysis.
type StateError struct{ Reason string }

func (e *StateError) Error() string { return "core: invalid saved state: " + e.Reason }

func statef(format string, args ...interface{}) error {
	return &StateError{Reason: fmt.Sprintf(format, args...)}
}

// ProgramMismatchError reports that a SavedState describes a different
// program than the one offered for rehydration. Routine is the first
// routine index whose body hash differs, or -1 when the routine counts
// differ.
type ProgramMismatchError struct{ Routine int }

func (e *ProgramMismatchError) Error() string {
	if e.Routine < 0 {
		return "core: saved state is for a program with a different routine count"
	}
	return fmt.Sprintf("core: saved state is for a different program (routine %d body differs)", e.Routine)
}

// Rehydrate rebuilds a working *Analysis from a SavedState without
// re-running the solver: the CFGs and callgraph are reconstructed from
// the program (cheap, embarrassingly parallel), the PSG slabs and
// converged sets are taken from the state, everything layout-dependent
// — slab bounds, entry, exit and caller-edge lists, adjacency — is
// derived from the slabs by index, as for a fresh analysis, and the
// return-site links are rebuilt. The result is indistinguishable from
// the Analysis that produced the state: queries answer identically and
// Reanalyze accepts it as a warm start.
//
// The options must resolve to the same Config.Key the state was
// computed under (ConfigMismatchError otherwise), and the program's
// per-routine body hashes must match the state's (ProgramMismatchError
// otherwise). Malformed states are rejected with StateError, never a
// panic, so callers can feed untrusted bytes through
// snapshot.Decode → Rehydrate safely.
func Rehydrate(p *prog.Program, st *SavedState, opts ...Option) (*Analysis, error) {
	return RehydrateContext(context.Background(), p, st, opts...)
}

// RehydrateContext is Rehydrate with cancellation between stages.
func RehydrateContext(ctx context.Context, p *prog.Program, st *SavedState, opts ...Option) (*Analysis, error) {
	conf := NewConfig(opts...)
	conf.ctx = ctx
	if got := conf.Key(); got != st.OptionKey {
		return nil, &ConfigMismatchError{Want: st.OptionKey, Got: got}
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(st.BodyHashes) != len(p.Routines) {
		return nil, &ProgramMismatchError{Routine: -1}
	}
	for ri := range p.Routines {
		if p.Routines[ri].Hash() != st.BodyHashes[ri] {
			return nil, &ProgramMismatchError{Routine: ri}
		}
	}
	if err := st.checkShape(); err != nil {
		return nil, err
	}

	workers := conf.Workers()
	a := &Analysis{Prog: p, Config: conf}
	a.Stats.Parallelism = workers
	asp := conf.Tracer.Begin("rehydrate").
		Arg("routines", int64(len(p.Routines))).
		Arg("workers", int64(workers))
	defer asp.End()

	a.Graphs = make([]*cfg.Graph, len(p.Routines))
	a.buildGraphs(asp, workers, allRoutines(len(p.Routines)))
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: rehydrate: %w", err)
	}

	a.Stats.CallGraphBuild = stage(asp, "callgraph build", func(sp obs.Span) {
		a.callGraph = callgraph.Build(p,
			callgraph.WithIndirectPinning(conf.LinkIndirectCalls),
			callgraph.WithObs(sp, conf.Metrics))
	})
	a.Stats.SCCComponents = a.callGraph.NumComponents()
	if err := st.checkCondensation(a.callGraph); err != nil {
		return nil, err
	}

	g, err := st.buildPSG(p, a.Graphs)
	if err != nil {
		return nil, err
	}
	g.index()
	g.linkReturnSites(conf)
	a.PSG = g
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: rehydrate: %w", err)
	}

	a.collectSummaries()
	a.collectCounts()
	a.hashes = append([]uint64(nil), st.BodyHashes...)
	a.hashOnce.Do(func() {})
	a.prepareQueries()
	return a, nil
}

// checkShape validates the column lengths against each other.
func (st *SavedState) checkShape() error {
	n := len(st.NodeKind)
	if len(st.NodeRoutine) != n || len(st.NodeBlock) != n || len(st.NodeEntryIdx) != n ||
		len(st.NodeCallTarget) != n || len(st.NodeCallEntry) != n || len(st.NodeUnknown) != n ||
		len(st.NodeMayUse) != n || len(st.NodeMayDef) != n || len(st.NodeMustDef) != n ||
		len(st.NodePhase1Use) != n {
		return statef("node columns have unequal lengths")
	}
	m := len(st.EdgeKind)
	if len(st.EdgeSrc) != m || len(st.EdgeDst) != m || len(st.EdgeMayUse) != m ||
		len(st.EdgeMayDef) != m || len(st.EdgeMustDef) != m {
		return statef("edge columns have unequal lengths")
	}
	r := len(st.BodyHashes)
	if len(st.SavedRestored) != r || len(st.FrameClean) != r ||
		len(st.FrameHasIndirect) != r || len(st.FrameLocalSaved) != r {
		return statef("per-routine columns have unequal lengths")
	}
	if len(st.CalleeWave) != len(st.Components) || len(st.CallerWave) != len(st.Components) {
		return statef("wave columns do not match component count")
	}
	return nil
}

// checkCondensation proves the persisted condensation matches the one
// rebuilt from the program: same components, same membership, same wave
// assignments. A mismatch means the state was produced by a different
// implementation version (or corrupted in a way the checksum missed).
func (st *SavedState) checkCondensation(cg *callgraph.Graph) error {
	if cg.NumComponents() != len(st.Components) {
		return statef("condensation has %d components, program has %d",
			len(st.Components), cg.NumComponents())
	}
	for c := range st.Components {
		ms := cg.Members(c)
		if len(ms) != len(st.Components[c]) {
			return statef("component %d has %d members, program has %d",
				c, len(st.Components[c]), len(ms))
		}
		for i, ri := range ms {
			if int32(ri) != st.Components[c][i] {
				return statef("component %d member %d is routine %d, program has %d",
					c, i, st.Components[c][i], ri)
			}
		}
		if int32(cg.CalleeFirstWave(c)) != st.CalleeWave[c] ||
			int32(cg.CallerFirstWave(c)) != st.CallerWave[c] {
			return statef("component %d wave assignment differs", c)
		}
	}
	return nil
}

// buildPSG reassembles the PSG slabs from the state's columns,
// validating every index and the slab properties index relies on — both
// slabs routine-contiguous, one entry node per entrance, call targets in
// range — so corrupt states are rejected rather than crashing the
// layout derivation, the return-site rebuild or a later re-analysis.
func (st *SavedState) buildPSG(p *prog.Program, graphs []*cfg.Graph) (*PSG, error) {
	nR := len(p.Routines)
	g := &PSG{
		Prog:          p,
		Graphs:        graphs,
		Nodes:         make([]Node, len(st.NodeKind)),
		Edges:         make([]Edge, len(st.EdgeKind)),
		SavedRestored: append([]regset.Set(nil), st.SavedRestored...),
		frames:        make([]FrameFact, nR),
	}
	// entryOff numbers the entrances across routines; seen marks those
	// with an entry node.
	entryOff := make([]int, nR+1)
	for ri, r := range p.Routines {
		entryOff[ri+1] = entryOff[ri] + len(r.Entries)
		g.frames[ri] = FrameFact{
			Clean:       st.FrameClean[ri],
			HasIndirect: st.FrameHasIndirect[ri],
			LocalSaved:  st.FrameLocalSaved[ri],
		}
	}
	seen := make([]bool, entryOff[nR])

	prevRoutine := int32(0)
	for i := range g.Nodes {
		kind := NodeKind(st.NodeKind[i])
		if kind > NodeBranch {
			return nil, statef("node %d has unknown kind %d", i, kind)
		}
		ri := st.NodeRoutine[i]
		if ri < 0 || int(ri) >= nR {
			return nil, statef("node %d routine %d out of range", i, ri)
		}
		if ri < prevRoutine {
			return nil, statef("node %d breaks routine-contiguous slab order", i)
		}
		prevRoutine = ri
		blk := st.NodeBlock[i]
		if blk < 0 || int(blk) >= len(graphs[ri].Blocks) {
			return nil, statef("node %d block %d out of range", i, blk)
		}
		n := Node{
			ID:         i,
			Kind:       kind,
			Routine:    int(ri),
			Block:      int(blk),
			EntryIdx:   int(st.NodeEntryIdx[i]),
			CallTarget: int(st.NodeCallTarget[i]),
			CallEntry:  int(st.NodeCallEntry[i]),
			Unknown:    st.NodeUnknown[i],
			MayUse:     st.NodeMayUse[i],
			MayDef:     st.NodeMayDef[i],
			MustDef:    st.NodeMustDef[i],
			phase1Use:  st.NodePhase1Use[i],
		}
		switch kind {
		case NodeEntry:
			if n.EntryIdx < 0 || n.EntryIdx >= len(p.Routines[ri].Entries) {
				return nil, statef("node %d entry index %d out of range", i, n.EntryIdx)
			}
			k := entryOff[ri] + n.EntryIdx
			if seen[k] {
				return nil, statef("routine %d entrance %d has two entry nodes", ri, n.EntryIdx)
			}
			seen[k] = true
		case NodeCall:
			if n.CallTarget < -1 || n.CallTarget >= nR {
				return nil, statef("node %d call target %d out of range", i, n.CallTarget)
			}
			if n.CallTarget >= 0 &&
				(n.CallEntry < 0 || n.CallEntry >= len(p.Routines[n.CallTarget].Entries)) {
				return nil, statef("node %d call entry %d out of range", i, n.CallEntry)
			}
		}
		g.Nodes[i] = n
	}
	for ri := 0; ri < nR; ri++ {
		for k := entryOff[ri]; k < entryOff[ri+1]; k++ {
			if !seen[k] {
				return nil, statef("routine %d entrance %d has no entry node", ri, k-entryOff[ri])
			}
		}
	}

	lastRoutine := 0
	for i := range g.Edges {
		kind := EdgeKind(st.EdgeKind[i])
		if kind > EdgeCallReturn {
			return nil, statef("edge %d has unknown kind %d", i, kind)
		}
		src, dst := st.EdgeSrc[i], st.EdgeDst[i]
		if src < 0 || int(src) >= len(g.Nodes) || dst < 0 || int(dst) >= len(g.Nodes) {
			return nil, statef("edge %d endpoints (%d, %d) out of range", i, src, dst)
		}
		ri := g.Nodes[src].Routine
		if ri != g.Nodes[dst].Routine {
			return nil, statef("edge %d crosses routines", i)
		}
		if ri < lastRoutine {
			return nil, statef("edge %d breaks routine-contiguous slab order", i)
		}
		lastRoutine = ri
		g.Edges[i] = Edge{
			ID:      i,
			Kind:    kind,
			Src:     int(src),
			Dst:     int(dst),
			MayUse:  st.EdgeMayUse[i],
			MayDef:  st.EdgeMayDef[i],
			MustDef: st.EdgeMustDef[i],
		}
	}
	return g, nil
}

package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/callgraph"
	"repro/internal/callstd"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/regset"
)

// Stats records where analysis time is spent, matching the stage
// decomposition of Figure 13, along with the structural counts the
// paper's tables report.
//
// Each stage has two durations: the wall-clock time the stage took
// (what a user waits for) and its aggregate CPU time — the sum of
// compute time across the worker pool. For the serial stages (phase 1
// and phase 2) the two are equal; for the parallel per-routine stages
// CPU/wall approximates the achieved speedup, and CPU remains
// comparable across parallelism settings.
type Stats struct {
	// Stage wall-clock durations (Figure 13).
	CFGBuild time.Duration // building the CFG of each routine
	Init     time.Duration // generating DEF and UBD sets per block
	PSGBuild time.Duration // generating PSG nodes and edges
	Phase1   time.Duration // call-used/killed/defined dataflow
	Phase2   time.Duration // live-at-entry/exit dataflow

	// Aggregate CPU time per stage, summed across workers.
	CFGBuildCPU time.Duration
	InitCPU     time.Duration
	PSGBuildCPU time.Duration
	Phase1CPU   time.Duration
	Phase2CPU   time.Duration

	// CallGraphBuild is the time spent building and condensing the
	// call graph that schedules the phases. It is reported separately
	// and not folded into Total(), which keeps the five Figure 13
	// stages comparable with the paper.
	CallGraphBuild time.Duration

	// Parallelism is the effective worker-pool size the parallel
	// stages ran with.
	Parallelism int

	// SCC condensation shape and per-phase schedule counts. The wave
	// and iteration counts are properties of the schedule, not of the
	// worker pool: they are byte-identical at every parallelism
	// setting (see DESIGN.md §6).
	SCCComponents    int // strongly connected components in the call graph
	Phase1Waves      int // callee-first waves phase 1 executed
	Phase2Waves      int // caller-first waves phase 2 executed
	Phase1Iterations int // total phase-1 worklist iterations
	Phase2Iterations int // total phase-2 worklist iterations

	// Structural counts (Tables 2, 3, 5).
	Routines     int
	Instructions int
	BasicBlocks  int
	CFGArcs      int // intraprocedural arcs only
	PSGNodes     int
	PSGEdges     int

	// GraphBytes estimates the memory footprint of the analysis
	// structures (CFG blocks + PSG nodes and edges), the deterministic
	// analogue of the paper's memory column.
	GraphBytes uint64
}

// Total returns the sum of the stage wall-clock durations.
func (s *Stats) Total() time.Duration {
	return s.CFGBuild + s.Init + s.PSGBuild + s.Phase1 + s.Phase2
}

// TotalCPU returns the sum of the stage CPU durations: the compute the
// analysis performed, independent of how many workers it was spread
// over.
func (s *Stats) TotalCPU() time.Duration {
	return s.CFGBuildCPU + s.InitCPU + s.PSGBuildCPU + s.Phase1CPU + s.Phase2CPU
}

// StageFractions returns each stage's share of the total, in Figure 13's
// order: CFG build, initialization, PSG build, phase 1, phase 2.
func (s *Stats) StageFractions() [5]float64 {
	total := s.Total().Seconds()
	if total == 0 {
		return [5]float64{}
	}
	return [5]float64{
		s.CFGBuild.Seconds() / total,
		s.Init.Seconds() / total,
		s.PSGBuild.Seconds() / total,
		s.Phase1.Seconds() / total,
		s.Phase2.Seconds() / total,
	}
}

// RoutineSummary holds the five dataflow summaries of one routine (§2).
type RoutineSummary struct {
	// Per entrance (parallel to Routine.Entries).
	CallUsed    []regset.Set // MAY-USE at each entry, §3.4-filtered
	CallDefined []regset.Set // MUST-DEF at each entry, §3.4-filtered
	CallKilled  []regset.Set // MAY-DEF at each entry, §3.4-filtered
	LiveAtEntry []regset.Set

	// Per exit, in the order the routine's ret/halt instructions
	// appear. ExitBlocks gives each exit's basic-block ID.
	LiveAtExit []regset.Set
	ExitBlocks []int

	// SavedRestored is the §3.4 set removed from the outward-facing
	// summary.
	SavedRestored regset.Set
}

// Analysis is the result of interprocedural dataflow analysis over a
// program.
type Analysis struct {
	Prog      *prog.Program
	Config    Config
	Graphs    []*cfg.Graph
	PSG       *PSG
	Stats     Stats
	Summaries []RoutineSummary

	// Incremental is non-nil when the analysis was produced by
	// Reanalyze (or restored and patched through the daemon); it
	// records how much of the previous analysis was reused.
	Incremental *IncrementalStats

	callGraph *callgraph.Graph

	// schedShape retains the structure-dependent half of the phase
	// scheduler (component membership maps, seed orders, indirect-call
	// machinery). When a later Reanalyze proves the PSG and call graph
	// structurally identical, it rebuilds a scheduler from this shape
	// instead of recomputing the per-component DFS orders. Analyses
	// restored from snapshots have no shape and fall back to a full
	// scheduler build on their first re-analysis.
	schedShape *schedShape

	// Per-routine body content hashes (prog.Routine.Hash), computed on
	// first use; Reanalyze diffs them and snapshots persist them.
	hashOnce sync.Once
	hashes   []uint64

	// indirect is the summary every jsr-indirect site applies
	// (IndirectCallSummary), fixed once the summaries are final.
	indirect CallSummary

	// Lazily solved per-routine liveness, shared by the read-only query
	// accessors (RoutineLiveness, LivenessAt). One sync.Once per routine
	// makes concurrent queries race-free and the solve happen at most
	// once per routine per Analysis.
	livOnce []sync.Once
	liv     []*dataflow.Liveness
}

// CallGraph returns the call graph the phases were scheduled on: use it
// to query a routine's component (CallGraph().Component(ri)), the
// component's members, its callee/caller edges at both the routine and
// component level, and its wave indices in the two schedules.
func (a *Analysis) CallGraph() *callgraph.Graph { return a.callGraph }

// BodyHashes returns the per-routine body content hashes of the
// analyzed program (prog.Routine.Hash), computed on first use and
// memoized; concurrent callers share one computation. Reanalyze diffs
// a patched program against them, and snapshots persist them so a
// restored analysis can diff without the original source.
func (a *Analysis) BodyHashes() []uint64 {
	a.hashOnce.Do(func() {
		a.hashes = make([]uint64, len(a.Prog.Routines))
		for ri := range a.Prog.Routines {
			a.hashes[ri] = a.Prog.Routines[ri].Hash()
		}
	})
	return a.hashes
}

// adoptBodyHashes installs pre-computed body hashes so a later
// BodyHashes call does not rescan the program. Reanalyze already knows
// every hash from its diff (clean routines inherit the previous hash,
// dirty ones were hashed to prove them dirty); adopting them keeps
// chained re-analyses from rehashing the whole program each step.
func (a *Analysis) adoptBodyHashes(h []uint64) {
	a.hashOnce.Do(func() { a.hashes = h })
}

// Analyze performs the full interprocedural dataflow analysis of the
// paper: CFG construction, DEF/UBD initialization, PSG construction,
// phase 1 and phase 2.
//
// The analysis is configured with functional options applied on top of
// DefaultConfig:
//
//	a, err := core.Analyze(p)                          // library default
//	a, err := core.Analyze(p, core.WithOpenWorld())    // the paper's §3.5
//	a, err := core.Analyze(p, core.WithParallelism(8)) // bound the pool
//
// The per-routine stages — CFG construction, DEF/UBD initialization
// and flow-summary edge labeling — run on a bounded worker pool
// (WithParallelism; GOMAXPROCS by default), sharded by routine and
// merged in routine order. Phases 1 and 2 are scheduled over the call
// graph's SCC condensation (see CallGraph): components are solved in
// dependency-ordered waves — callee-first for phase 1, caller-first
// for phase 2 — and the components of each wave run concurrently on
// the same pool. The resulting Analysis (summaries, structural counts,
// schedule counts, node/edge IDs, DOT output) is byte-identical for
// every parallelism setting; DESIGN.md §6 gives the argument.
func Analyze(p *prog.Program, opts ...Option) (*Analysis, error) {
	return AnalyzeContext(context.Background(), p, opts...)
}

// AnalyzeContext is Analyze under a context: if ctx is cancelled while
// the analysis is running, the pipeline stops at the next cancellation
// point — between stages, between scheduler waves, and periodically
// inside each component's fixed-point loop — and returns ctx's error.
// A server answering analysis queries uses this so an abandoned request
// cancels its in-flight analysis instead of leaking the work; when ctx
// is never cancelled the result is identical to Analyze in every way.
//
// The analysis is the re-analysis engine (reanalyze.go) run against the
// empty analysis: no routine has a previous counterpart, so every
// routine is dirty and every component is solved, through the same
// stages, layout and solvers a re-analysis uses.
func AnalyzeContext(ctx context.Context, p *prog.Program, opts ...Option) (*Analysis, error) {
	return reanalyze(ctx, &Analysis{Prog: &prog.Program{}}, p, false, opts)
}

// buildGraphs runs the cfg build and init stages over the routines
// listed in dirty, writing their CFGs into a.Graphs and the two stages'
// Stats.
func (a *Analysis) buildGraphs(asp obs.Span, workers int, dirty []int) {
	a.Stats.CFGBuild = stage(asp, "cfg build", func(sp obs.Span) {
		a.Stats.CFGBuildCPU = par.ForEachSpan(sp, "cfg", len(dirty), workers, func(i int) {
			a.Graphs[dirty[i]] = cfg.Build(a.Prog, dirty[i])
		})
	})
	a.Stats.Init = stage(asp, "init", func(sp obs.Span) {
		a.Stats.InitCPU = par.ForEachSpan(sp, "defubd", len(dirty), workers, func(i int) {
			cfg.ComputeDefUBD(a.Graphs[dirty[i]])
		})
	})
}

// stage runs fn as one pipeline stage: a span named name under parent
// on the pipeline track, which fn receives so the stage's own spans
// nest under it. It returns the stage's wall time, the Stats field the
// stage reports.
func stage(parent obs.Span, name string, fn func(sp obs.Span)) time.Duration {
	sp := parent.Begin(name)
	start := time.Now()
	fn(sp)
	d := time.Since(start)
	sp.End()
	return d
}

// publishMetrics stores the graph-shape gauges and this run's pool
// deltas into the configured registry. The gauges are deterministic
// (Store, not Add, so a re-analysis over the same registry overwrites
// rather than double-counts); the pool deltas are unstable by nature.
func (a *Analysis) publishMetrics(wlGets0, wlNews0, duGets0, duNews0 uint64) {
	m := a.Config.Metrics
	if m == nil {
		return
	}
	st := &a.Stats
	m.Counter("psg/nodes").Store(uint64(st.PSGNodes))
	m.Counter("psg/edges").Store(uint64(st.PSGEdges))
	m.Counter("cfg/blocks").Store(uint64(st.BasicBlocks))
	m.Counter("cfg/arcs").Store(uint64(st.CFGArcs))
	m.Counter("graph/arena_bytes").Store(st.GraphBytes)
	m.Counter("sched/phase1_waves").Store(uint64(st.Phase1Waves))
	m.Counter("sched/phase2_waves").Store(uint64(st.Phase2Waves))
	wlGets, wlNews := wlPool.Stats()
	duGets, duNews := defusePool.Stats()
	m.UnstableCounter("pool/worklist_gets").Add(wlGets - wlGets0)
	m.UnstableCounter("pool/worklist_misses").Add(wlNews - wlNews0)
	// Retired with the dense labelers and their scratch pool, these
	// read zero. They stay registered because the spike.v1/v2 metrics
	// documents and their goldens name them; dropping them is a wire
	// change.
	m.Counter("label/dense_fallbacks")
	m.UnstableCounter("pool/label_scratch_gets")
	m.UnstableCounter("pool/label_scratch_misses")
	m.UnstableCounter("pool/defuse_gets").Add(duGets - duGets0)
	m.UnstableCounter("pool/defuse_misses").Add(duNews - duNews0)
}

// collectSummaries reads the converged node sets out of the PSG: the
// phase-1 snapshot for call-used/defined/killed (§3.4-filtered) and the
// phase-2 MAY-USE sets for live-at-entry/exit.
func (a *Analysis) collectSummaries() {
	a.Summaries = make([]RoutineSummary, len(a.Prog.Routines))
	for ri := range a.Prog.Routines {
		a.Summaries[ri] = a.collectSummary(ri)
	}
}

// collectSummary reads one routine's summary out of the converged PSG.
func (a *Analysis) collectSummary(ri int) RoutineSummary {
	sr := a.PSG.SavedRestored[ri]
	s := RoutineSummary{SavedRestored: sr}
	for _, nid := range a.PSG.EntryNodes[ri] {
		n := a.PSG.Nodes[nid]
		s.CallUsed = append(s.CallUsed, n.phase1Use.Minus(sr))
		s.CallDefined = append(s.CallDefined, n.MustDef.Minus(sr))
		s.CallKilled = append(s.CallKilled, n.MayDef.Minus(sr))
		s.LiveAtEntry = append(s.LiveAtEntry, n.MayUse)
	}
	for _, nid := range a.PSG.ExitNodes[ri] {
		n := a.PSG.Nodes[nid]
		s.LiveAtExit = append(s.LiveAtExit, n.MayUse)
		s.ExitBlocks = append(s.ExitBlocks, n.Block)
	}
	return s
}

func (a *Analysis) collectCounts() {
	st := &a.Stats
	st.Routines = len(a.Prog.Routines)
	st.Instructions = a.Prog.NumInstructions()
	for _, g := range a.Graphs {
		st.BasicBlocks += len(g.Blocks)
		st.CFGArcs += g.NumArcs()
	}
	st.PSGNodes = a.PSG.NumNodes()
	st.PSGEdges = a.PSG.NumEdges()
	st.GraphBytes = a.graphBytes()
}

// graphBytes measures the analysis's memory footprint from the arena
// sizes of its graph structures: the CFG block slabs and succ/pred
// arenas, the PSG node/edge slabs, the CSR adjacency, and the phase-2
// return-site links. Because every structure is flat, the sum is exact
// (up to allocator rounding) rather than an estimate over thousands of
// small objects.
func (a *Analysis) graphBytes() uint64 {
	var b uint64
	for _, g := range a.Graphs {
		b += g.MemoryFootprint()
	}
	return b + a.PSG.MemoryFootprint()
}

// Summary returns the summary of the routine with the given index.
func (a *Analysis) Summary(ri int) *RoutineSummary { return &a.Summaries[ri] }

// CallSummary bundles the three sets a caller applies at a call site
// (§2): the registers the callee may read before writing (Used), the
// registers it defines on every path (Defined), and the registers it
// may write at all (Killed).
type CallSummary struct {
	Used    regset.Set
	Defined regset.Set
	Killed  regset.Set
}

// CallSummaryFor returns the summary to apply at a direct call to
// entrance e of routine ri.
func (a *Analysis) CallSummaryFor(ri, e int) CallSummary {
	s := &a.Summaries[ri]
	return CallSummary{
		Used:    s.CallUsed[e],
		Defined: s.CallDefined[e],
		Killed:  s.CallKilled[e],
	}
}

// prepareQueries sets up the read-only query surface once the
// summaries are final: the indirect-call summary, which every
// per-routine liveness solve and indirect call-site query applies, and
// the empty per-routine liveness memo. Every constructor of an
// Analysis (Analyze, Reanalyze, Rehydrate) ends with it.
func (a *Analysis) prepareQueries() {
	a.indirect = a.indirectCallSummary()
	a.livOnce = make([]sync.Once, len(a.Prog.Routines))
	a.liv = make([]*dataflow.Liveness, len(a.Prog.Routines))
}

// IndirectCallSummary returns the summary to apply at an indirect call
// site: the §3.5 calling-standard assumption, widened — under the
// closed-world configuration — with the summaries of every
// address-taken routine (any of them could be the target). It is a
// constant of the converged analysis, computed once when the analysis
// is built.
func (a *Analysis) IndirectCallSummary() CallSummary { return a.indirect }

// indirectCallSummary computes IndirectCallSummary from the final
// summaries.
func (a *Analysis) indirectCallSummary() CallSummary {
	std := callstd.UnknownCallSummary()
	cs := CallSummary{Used: std.Used, Defined: std.Defined, Killed: std.Killed}
	if !a.Config.LinkIndirectCalls {
		return cs
	}
	for ri, r := range a.Prog.Routines {
		if !r.AddressTaken {
			continue
		}
		s := &a.Summaries[ri]
		cs.Used = cs.Used.Union(s.CallUsed[0])
		cs.Defined = cs.Defined.Intersect(s.CallDefined[0])
		cs.Killed = cs.Killed.Union(s.CallKilled[0])
	}
	return cs
}

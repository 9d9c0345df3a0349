package core

import (
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/progen"
)

// Allocation budgets for the fixed workload below (TestProfile(60),
// seed 1, parallelism 1). The numbers are the steady-state allocation
// counts measured under Go 1.24 with ~25% headroom, recorded so a
// future change that reintroduces per-node/per-edge heap objects or
// per-iteration scratch fails loudly instead of silently regressing the
// hot path. If a legitimate structural change moves a budget,
// re-measure with
//
//	go test ./internal/core/ -run AllocationBudget -v
//
// and update the constant alongside the change that explains it.
const (
	analyzeAllocBudget   = 2250 // full Analyze, closed world (measured 1,800)
	psgBuildAllocBudget  = 110  // buildPSG on prebuilt CFGs and call graph (measured 85)
	phasesAllocBudget    = 43   // runPhases on a reused PSG (measured 35)
	rehydrateAllocBudget = 2000 // Rehydrate from the same program's Export (measured 1,596)

	// One shape-preserving body edit (TestReanalyzeAllocationBudget).
	reanalyzeAllocBudget        = 122 // Reanalyze, copy mode (measured 97)
	reanalyzeInPlaceAllocBudget = 114 // ReanalyzeInPlace (measured 91)
)

func perfProgram() *prog.Program {
	return progen.Generate(progen.TestProfile(60), progen.DefaultOptions(1))
}

func TestAnalyzeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p := perfProgram()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(p, WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Analyze: %.0f allocs/run (budget %d)", allocs, analyzeAllocBudget)
	if allocs > analyzeAllocBudget {
		t.Errorf("Analyze allocates %.0f times per run, budget is %d", allocs, analyzeAllocBudget)
	}
}

func TestRehydrateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p := perfProgram()
	a, err := Analyze(p, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	st := a.Export()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Rehydrate(p, st, WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Rehydrate: %.0f allocs/run (budget %d)", allocs, rehydrateAllocBudget)
	if allocs > rehydrateAllocBudget {
		t.Errorf("Rehydrate allocates %.0f times per run, budget is %d", allocs, rehydrateAllocBudget)
	}
}

// perfStages returns the inputs of perfProgram's psg build stage —
// the CFGs with their DEF/UBD sets and the call graph — and the serial
// default configuration.
func perfStages() (*prog.Program, []*cfg.Graph, *callgraph.Graph, Config) {
	p := perfProgram()
	graphs := cfg.BuildAll(p)
	cfg.ComputeDefUBDAll(graphs, 1)
	conf := DefaultConfig()
	conf.Parallelism = 1
	cg := callgraph.Build(p, callgraph.WithIndirectPinning(conf.LinkIndirectCalls))
	return p, graphs, cg, conf
}

// buildPSG runs the psg build stage as a from-scratch analysis does:
// the layout with every routine built, the labeling pass, and the §3.4
// pass over every routine.
func buildPSG(p *prog.Program, graphs []*cfg.Graph, cg *callgraph.Graph, conf Config) *PSG {
	g, tasks := layoutPSG(p, graphs, conf, nil, nil)
	g.labelAll(tasks, conf, obs.Span{})
	g.computeSavedRestored(nil, cg, allRoutines(len(graphs)), conf.Workers(), obs.Span{})
	return g
}

// runPhases runs both phases as a from-scratch analysis does: a fresh
// scheduler, every component dirty, no cutoffs.
func runPhases(g *PSG, cg *callgraph.Graph, conf Config) {
	s := newPhaseSched(g, cg, conf)
	s.prepareIndirect()
	n := cg.NumComponents()
	marks := make([]bool, 3*n)
	dirty, resolved1, resolved2 := marks[:n], marks[n:2*n], marks[2*n:]
	for c := range dirty {
		dirty[c] = true
	}
	s.runDirty(obs.Span{}, false, dirty, resolved1, nil)
	g.linkReturnSites(conf)
	s.runDirty(obs.Span{}, true, resolved1, resolved2, nil)
}

func TestPSGBuildAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p, graphs, cg, conf := perfStages()
	allocs := testing.AllocsPerRun(5, func() {
		buildPSG(p, graphs, cg, conf)
	})
	t.Logf("psg build: %.0f allocs/run (budget %d)", allocs, psgBuildAllocBudget)
	if allocs > psgBuildAllocBudget {
		t.Errorf("psg build allocates %.0f times per run, budget is %d", allocs, psgBuildAllocBudget)
	}
}

func TestPhasesAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p, graphs, cg, conf := perfStages()
	g := buildPSG(p, graphs, cg, conf)
	allocs := testing.AllocsPerRun(5, func() {
		runPhases(g, cg, conf)
	})
	t.Logf("phases: %.0f allocs/run (budget %d)", allocs, phasesAllocBudget)
	if allocs > phasesAllocBudget {
		t.Errorf("phases allocate %.0f times per run, budget is %d", allocs, phasesAllocBudget)
	}
}

// TestReanalyzeAllocationBudget holds the engine's allocations on one
// shape-preserving body edit, in copy mode (the base stays intact, so
// every run re-analyzes the same edit) and in place (each run consumes
// the previous analysis, so the runs flip-flop between the two
// versions).
func TestReanalyzeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p := perfProgram()
	mutant, _ := progen.MutateKind(p, 3, progen.MutBodyEdit)
	analyze := func() *Analysis {
		a, err := Analyze(p, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	check := func(a *Analysis, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if !a.Incremental.ShapePreserving {
			t.Fatal("the edit left the shape-preserving path")
		}
	}
	base := analyze()
	copied := testing.AllocsPerRun(5, func() {
		check(Reanalyze(base, mutant, WithParallelism(1)))
	})
	cur, versions, step := analyze(), [2]*prog.Program{mutant, p}, 0
	inPlace := testing.AllocsPerRun(5, func() {
		next, err := ReanalyzeInPlace(cur, versions[step%2], WithParallelism(1))
		check(next, err)
		cur, step = next, step+1
	})
	for _, m := range []struct {
		mode   string
		allocs float64
		budget int
	}{
		{"copy", copied, reanalyzeAllocBudget},
		{"in place", inPlace, reanalyzeInPlaceAllocBudget},
	} {
		t.Logf("Reanalyze %s: %.0f allocs/run (budget %d)", m.mode, m.allocs, m.budget)
		if m.allocs > float64(m.budget) {
			t.Errorf("Reanalyze %s allocates %.0f times per run, budget is %d", m.mode, m.allocs, m.budget)
		}
	}
}

// The stage benchmarks isolate the three hot components of the
// pipeline — PSG construction, flow-summary labeling, and the two
// interprocedural phases — and report B/op and allocs/op so the
// bench-json trajectory catches allocation regressions per stage.

func BenchmarkPSGBuild(b *testing.B) {
	p, graphs, cg, conf := perfStages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildPSG(p, graphs, cg, conf)
	}
}

func BenchmarkLabeling(b *testing.B) {
	p, graphs, cg, conf := perfStages()
	// One sub-benchmark, under the name bench-json records carry
	// (cmd/benchdelta maps the older "forward" rows onto it).
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildPSG(p, graphs, cg, conf)
		}
		// Publish the labeling shape counters with the record
		// (units ending "/run"): one untimed instrumented build.
		b.StopTimer()
		conf.Metrics = obs.NewMetrics()
		buildPSG(p, graphs, cg, conf)
		obs.ReportCounters(b, conf.Metrics,
			"label/flow_edges", "label/defuse_links", "label/chain_steps")
	})
}

// BenchmarkDefUseBuild isolates the sparse labeler's chain-slab
// construction (classification, forwarding contraction, link CSR) from
// the solves it feeds, so slab-build regressions are visible separately
// from labeling proper.
func BenchmarkDefUseBuild(b *testing.B) {
	p, graphs, cg, conf := perfStages()
	g := buildPSG(p, graphs, cg, conf)
	rns := make([]routineNodes, len(graphs))
	for ri, graph := range graphs {
		rn := new(defUse).routineNodes(len(graph.Blocks))
		for i := g.nodeStart[ri]; i < g.nodeStart[ri+1]; i++ {
			n := &g.Nodes[i]
			switch n.Kind {
			case NodeReturn:
				rn.returnAt[n.Block] = int32(n.ID)
			case NodeBranch:
				rn.branchAt[n.Block] = int32(n.ID)
				rn.sinkAt[n.Block] = int32(n.ID)
			case NodeCall, NodeExit:
				rn.sinkAt[n.Block] = int32(n.ID)
			}
		}
		rns[ri] = rn
	}
	var arena defUseArena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.reset()
		for ri, graph := range graphs {
			arena.take().build(graph, rns[ri])
		}
	}
}

func BenchmarkPhases(b *testing.B) {
	p, graphs, cg, conf := perfStages()
	g := buildPSG(p, graphs, cg, conf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPhases(g, cg, conf)
	}
	// One untimed instrumented run publishes the solver counters into
	// the benchmark record (units ending "/run"), so BENCH_phases.json
	// tracks worklist traffic and relabels alongside ns/op.
	b.StopTimer()
	conf.Metrics = obs.NewMetrics()
	runPhases(g, cg, conf)
	obs.ReportCounters(b, conf.Metrics,
		"phase1/iterations", "phase1/worklist_pushes", "phase1/edge_relabels",
		"phase1/edge_scans", "phase2/iterations", "phase2/worklist_pushes",
		"phase2/edge_scans")
}

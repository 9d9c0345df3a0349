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
	analyzeAllocBudget   = 2250 // full Analyze, closed world (measured 1,799)
	psgBuildAllocBudget  = 110  // buildPSG on prebuilt CFGs (measured 87)
	phasesAllocBudget    = 43   // newPhaseSched + both phases, reused PSG (measured 34)
	rehydrateAllocBudget = 2000 // Rehydrate from the same program's Export (measured 1,596)
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

func TestPSGBuildAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p := perfProgram()
	graphs := cfg.BuildAll(p)
	cfg.ComputeDefUBDAll(graphs, 1)
	conf := DefaultConfig()
	conf.Parallelism = 1
	allocs := testing.AllocsPerRun(5, func() {
		buildPSG(p, graphs, conf, obs.Span{})
	})
	t.Logf("buildPSG: %.0f allocs/run (budget %d)", allocs, psgBuildAllocBudget)
	if allocs > psgBuildAllocBudget {
		t.Errorf("buildPSG allocates %.0f times per run, budget is %d", allocs, psgBuildAllocBudget)
	}
}

func TestPhasesAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p := perfProgram()
	graphs := cfg.BuildAll(p)
	cfg.ComputeDefUBDAll(graphs, 1)
	conf := DefaultConfig()
	conf.Parallelism = 1
	g, _ := buildPSG(p, graphs, conf, obs.Span{})
	cg := callgraph.Build(p, callgraph.WithIndirectPinning(conf.LinkIndirectCalls))
	allocs := testing.AllocsPerRun(5, func() {
		s := newPhaseSched(g, cg, conf)
		s.runPhase1(obs.Span{})
		s.runPhase2(obs.Span{})
	})
	t.Logf("phases: %.0f allocs/run (budget %d)", allocs, phasesAllocBudget)
	if allocs > phasesAllocBudget {
		t.Errorf("phases allocate %.0f times per run, budget is %d", allocs, phasesAllocBudget)
	}
}

// The stage benchmarks isolate the three hot components of the
// pipeline — PSG construction, flow-summary labeling, and the two
// interprocedural phases — and report B/op and allocs/op so the
// bench-json trajectory catches allocation regressions per stage.

func BenchmarkPSGBuild(b *testing.B) {
	p := perfProgram()
	graphs := cfg.BuildAll(p)
	cfg.ComputeDefUBDAll(graphs, 1)
	conf := DefaultConfig()
	conf.Parallelism = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildPSG(p, graphs, conf, obs.Span{})
	}
}

func BenchmarkLabeling(b *testing.B) {
	p := perfProgram()
	graphs := cfg.BuildAll(p)
	cfg.ComputeDefUBDAll(graphs, 1)
	// One sub-benchmark, under the name bench-json records carry
	// (cmd/benchdelta maps the older "forward" rows onto it).
	b.Run("sparse", func(b *testing.B) {
		conf := DefaultConfig()
		conf.Parallelism = 1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildPSG(p, graphs, conf, obs.Span{})
		}
		// Publish the labeling shape counters with the record
		// (units ending "/run"): one untimed instrumented build.
		b.StopTimer()
		conf.Metrics = obs.NewMetrics()
		buildPSG(p, graphs, conf, obs.Span{})
		obs.ReportCounters(b, conf.Metrics,
			"label/flow_edges", "label/defuse_links", "label/chain_steps")
	})
}

// BenchmarkDefUseBuild isolates the sparse labeler's chain-slab
// construction (classification, forwarding contraction, link CSR) from
// the solves it feeds, so slab-build regressions are visible separately
// from labeling proper.
func BenchmarkDefUseBuild(b *testing.B) {
	p := perfProgram()
	graphs := cfg.BuildAll(p)
	cfg.ComputeDefUBDAll(graphs, 1)
	conf := DefaultConfig()
	conf.Parallelism = 1
	g, _ := buildPSG(p, graphs, conf, obs.Span{})
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
	p := perfProgram()
	graphs := cfg.BuildAll(p)
	cfg.ComputeDefUBDAll(graphs, 1)
	conf := DefaultConfig()
	conf.Parallelism = 1
	g, _ := buildPSG(p, graphs, conf, obs.Span{})
	cg := callgraph.Build(p, callgraph.WithIndirectPinning(conf.LinkIndirectCalls))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newPhaseSched(g, cg, conf)
		s.runPhase1(obs.Span{})
		s.runPhase2(obs.Span{})
	}
	// One untimed instrumented run publishes the solver counters into
	// the benchmark record (units ending "/run"), so BENCH_phases.json
	// tracks worklist traffic and relabels alongside ns/op.
	b.StopTimer()
	conf.Metrics = obs.NewMetrics()
	s := newPhaseSched(g, cg, conf)
	s.runPhase1(obs.Span{})
	s.runPhase2(obs.Span{})
	obs.ReportCounters(b, conf.Metrics,
		"phase1/iterations", "phase1/worklist_pushes", "phase1/edge_relabels",
		"phase1/edge_scans", "phase2/iterations", "phase2/worklist_pushes",
		"phase2/edge_scans")
}

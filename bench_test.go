// Package repro's top-level benchmarks regenerate each of the paper's
// tables and figures (§4) as testing.B benchmarks. Each benchmark
// measures the part of the pipeline its table reports; the printed
// tables themselves come from `go run ./cmd/spike bench -all`.
//
// The benchmarks run the profiles at reduced scale so `go test -bench`
// stays interactive; metrics are reported per run via b.ReportMetric so
// the *shape* (who is bigger, by what factor) is visible directly.
package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/snapshot"
)

// benchScale keeps the testing.B benchmarks fast; `spike bench` runs
// the real thing at scale 1.
const benchScale = 0.1

func generate(b *testing.B, name string) *prog.Program {
	b.Helper()
	prof, ok := progen.ProfileByName(name)
	if !ok {
		b.Fatalf("unknown profile %s", name)
	}
	return progen.Generate(prof.Scale(benchScale), progen.DefaultOptions(1))
}

// analyzeBench measures the full interprocedural analysis of one
// benchmark profile — the quantity of Table 2's time column and
// Figure 14.
func analyzeBench(b *testing.B, name string) {
	p := generate(b, name)
	b.ResetTimer()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(p, core.WithOpenWorld())
		if err != nil {
			b.Fatal(err)
		}
		st = a.Stats
	}
	b.ReportMetric(float64(st.Instructions), "instructions")
	b.ReportMetric(float64(st.BasicBlocks), "blocks")
	b.ReportMetric(float64(st.PSGNodes), "psg-nodes")
	b.ReportMetric(float64(st.PSGEdges), "psg-edges")
}

// Table 2 / Figure 14: analysis time across representative benchmarks
// of each size class.
func BenchmarkTable2AnalyzeCompress(b *testing.B) { analyzeBench(b, "compress") }
func BenchmarkTable2AnalyzeLi(b *testing.B)       { analyzeBench(b, "li") }
func BenchmarkTable2AnalyzePerl(b *testing.B)     { analyzeBench(b, "perl") }
func BenchmarkTable2AnalyzeGcc(b *testing.B)      { analyzeBench(b, "gcc") }
func BenchmarkTable2AnalyzeVc(b *testing.B)       { analyzeBench(b, "vc") }
func BenchmarkTable2AnalyzeWinword(b *testing.B)  { analyzeBench(b, "winword") }
func BenchmarkTable2AnalyzeAcad(b *testing.B)     { analyzeBench(b, "acad") }

// BenchmarkReanalyzeAcad measures incremental re-analysis after a
// single-routine body edit on the suite's largest routine count
// (acad) — the edit-compile-measure loop the snapshot/patch API
// serves. The baseline is BenchmarkTable2AnalyzeAcad (same program,
// same options, full solve); a from-scratch analysis of the mutant is
// also timed here once so the document carries the speedup directly.
// Results are byte-identical to scratch (TestReanalyzeMatchesScratch
// and the mutation soak assert it); this measures only the cost.
func BenchmarkReanalyzeAcad(b *testing.B) {
	p := generate(b, "acad")
	base, err := core.Analyze(p, core.WithOpenWorld())
	if err != nil {
		b.Fatal(err)
	}
	mutant, _ := progen.MutateKind(p, 1, progen.MutBodyEdit)
	start := time.Now()
	if _, err := core.Analyze(mutant, core.WithOpenWorld()); err != nil {
		b.Fatal(err)
	}
	full := time.Since(start)
	var inc *core.Analysis
	// Warm up out of the timed region: the first re-analyses touch cold
	// caches and pools, which would dominate a short -benchtime run.
	for i := 0; i < 3; i++ {
		if _, err := core.Reanalyze(base, mutant, core.WithOpenWorld()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc, err = core.Reanalyze(base, mutant, core.WithOpenWorld())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := inc.Incremental
	b.ReportMetric(float64(st.DirtyRoutines), "dirty-routines")
	b.ReportMetric(float64(st.ResolvedComponents), "resolved-components")
	b.ReportMetric(float64(st.ReusedComponents), "reused-components")
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(full.Seconds()/perOp, "speedup-vs-full")
	}
}

// BenchmarkReanalyzeInPlaceAcad measures the consuming editor loop:
// the target alternates between the mutant and the base program, so
// after warm-up every iteration applies a genuine single-routine edit
// to an analysis that was itself updated in place — the steady state
// with no slab copies at all.
func BenchmarkReanalyzeInPlaceAcad(b *testing.B) {
	p := generate(b, "acad")
	mutant, _ := progen.MutateKind(p, 1, progen.MutBodyEdit)
	start := time.Now()
	if _, err := core.Analyze(mutant, core.WithOpenWorld()); err != nil {
		b.Fatal(err)
	}
	full := time.Since(start)
	cur, err := core.Analyze(p, core.WithOpenWorld())
	if err != nil {
		b.Fatal(err)
	}
	// Warm up out of the timed region: the first steps update the fresh
	// base analysis (cold slab) rather than the in-place steady state.
	for i := 0; i < 4; i++ {
		target := mutant
		if i%2 == 1 {
			target = p
		}
		if cur, err = core.ReanalyzeInPlace(cur, target, core.WithOpenWorld()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := mutant
		if i%2 == 1 {
			target = p
		}
		cur, err = core.ReanalyzeInPlace(cur, target, core.WithOpenWorld())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := cur.Incremental
	b.ReportMetric(float64(st.DirtyRoutines), "dirty-routines")
	b.ReportMetric(float64(st.ResolvedComponents), "resolved-components")
	b.ReportMetric(float64(st.ReusedComponents), "reused-components")
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(full.Seconds()/perOp, "speedup-vs-full")
	}
}

// BenchmarkRestoreAcad measures the snapshot warm start on acad:
// decoding a captured image and restoring it into a working analysis
// (snapshot.Decode + Restore), the daemon's snapshot-load path. The
// baseline is BenchmarkTable2AnalyzeAcad (same program, same options),
// which computes what the restore reads back.
func BenchmarkRestoreAcad(b *testing.B) {
	p := generate(b, "acad")
	a, err := core.Analyze(p, core.WithOpenWorld())
	if err != nil {
		b.Fatal(err)
	}
	img := snapshot.Capture(a, "").Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := snapshot.Decode(img)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Restore(p, core.WithOpenWorld()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(img))/(1<<20), "image-MB")
}

// Table 3: PSG construction alone (nodes and edges per routine drive
// its cost); measured by rebuilding the PSG-bearing part of the
// analysis on a call-heavy profile.
func BenchmarkTable3PSGBuildMaxeda(b *testing.B) {
	p := generate(b, "maxeda")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(p, core.WithOpenWorld()); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 4: the branch-node ablation — the same program analyzed with
// and without §3.6 branch nodes.
func BenchmarkTable4BranchNodes(b *testing.B) {
	p := generate(b, "sqlservr") // the paper's biggest reduction (80%)
	with, without := core.PaperConfig(), core.PaperConfig()
	without.BranchNodes = false
	var edgesWith, edgesWithout int
	b.Run("with", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := core.Analyze(p, core.WithConfig(with))
			if err != nil {
				b.Fatal(err)
			}
			edgesWith = a.Stats.PSGEdges
		}
		b.ReportMetric(float64(edgesWith), "psg-edges")
	})
	b.Run("without", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := core.Analyze(p, core.WithConfig(without))
			if err != nil {
				b.Fatal(err)
			}
			edgesWithout = a.Stats.PSGEdges
		}
		b.ReportMetric(float64(edgesWithout), "psg-edges")
	})
}

// Table 5: PSG analysis versus whole-program-CFG analysis over the same
// program — the compactness claim.
func BenchmarkTable5PSGvsCFG(b *testing.B) {
	p := generate(b, "gcc")
	b.Run("psg", func(b *testing.B) {
		var nodes, edges int
		for i := 0; i < b.N; i++ {
			a, err := core.Analyze(p, core.WithOpenWorld())
			if err != nil {
				b.Fatal(err)
			}
			nodes, edges = a.Stats.PSGNodes, a.Stats.PSGEdges
		}
		b.ReportMetric(float64(nodes), "nodes")
		b.ReportMetric(float64(edges), "edges")
	})
	b.Run("cfg-baseline", func(b *testing.B) {
		var blocks, arcs int
		for i := 0; i < b.N; i++ {
			sg, _ := baseline.Analyze(p, baseline.WithOpenWorld())
			blocks, arcs = sg.NumBlocks(), sg.NumArcs()
		}
		b.ReportMetric(float64(blocks), "nodes")
		b.ReportMetric(float64(arcs), "edges")
	})
}

// Figure 13: per-stage timing, reported as metrics from one analysis.
func BenchmarkFigure13Stages(b *testing.B) {
	p := generate(b, "excel")
	var st core.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(p, core.WithOpenWorld())
		if err != nil {
			b.Fatal(err)
		}
		st = a.Stats
	}
	fr := st.StageFractions()
	b.ReportMetric(fr[0]*100, "%cfg")
	b.ReportMetric(fr[1]*100, "%init")
	b.ReportMetric(fr[2]*100, "%psg")
	b.ReportMetric(fr[3]*100, "%phase1")
	b.ReportMetric(fr[4]*100, "%phase2")
}

// Figure 15: memory — the analytic graph footprint per instruction.
func BenchmarkFigure15Memory(b *testing.B) {
	p := generate(b, "ustation")
	var bytes uint64
	var instr int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(p, core.WithOpenWorld())
		if err != nil {
			b.Fatal(err)
		}
		bytes, instr = a.Stats.GraphBytes, a.Stats.Instructions
	}
	b.ReportMetric(float64(bytes)/(1<<20), "graph-MB")
	b.ReportMetric(float64(bytes)/float64(instr), "bytes/instr")
}

// The §1 claim: optimizations enabled by the summaries improve dynamic
// instruction counts. Reported as percent improvement over the
// compiler baseline (the paper's programs came from "the same highly
// optimizing back-end", so the workload is pre-optimized with
// intraprocedural DCE first).
func BenchmarkOptimizations(b *testing.B) {
	raw := progen.Generate(progen.TestProfile(60), progen.PaperOptOptions(1))
	p, _, err := opt.Optimize(raw, opt.CompilerOptions())
	if err != nil {
		b.Fatal(err)
	}
	before, err := emu.Run(p.Clone(), 500_000_000)
	if err != nil {
		b.Fatal(err)
	}
	var improv float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := opt.Optimize(p, opt.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		after, err := emu.Run(out, 500_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if !emu.SameOutput(before, after) {
			b.Fatal("output changed")
		}
		improv = (1 - float64(after.Steps)/float64(before.Steps)) * 100
		b.StartTimer()
	}
	b.ReportMetric(improv, "%dyn-improv")
}

// The BenchmarkOptimize* family measures the optimizer as a subsystem —
// full Figure 1 pipeline cost on Table 2 profiles — and is routed by
// cmd/benchjson into BENCH_phases.json's "opt" section.
func BenchmarkOptimizeGcc(b *testing.B)  { optimizeBench(b, "gcc") }
func BenchmarkOptimizeAcad(b *testing.B) { optimizeBench(b, "acad") }

func optimizeBench(b *testing.B, name string) {
	b.Helper()
	prof, ok := progen.ProfileByName(name)
	if !ok {
		b.Fatalf("unknown profile %q", name)
	}
	p := progen.Generate(prof.Scale(benchScale), progen.PaperOptOptions(1))
	var rep *opt.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, r, err := opt.Optimize(p, opt.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Removed()), "instr-removed")
	b.ReportMetric(float64(rep.Rounds), "rounds")
	b.ReportMetric(float64(rep.Reanalyses), "reanalyses")
	// One untimed instrumented run records the per-pass opt/* counters
	// so bench-compare can diff what each pass contributed, not just
	// wall time.
	m := obs.NewMetrics()
	opts := opt.DefaultOptions()
	opts.Analysis.Metrics = m
	if _, _, err := opt.Optimize(p, opts); err != nil {
		b.Fatal(err)
	}
	obs.ReportCounters(b, m,
		"opt/dead_instructions", "opt/spills_removed", "opt/saverestore_rewrites",
		"opt/rounds", "opt/reanalyses", "opt/instructions_removed")
}

// BenchmarkOptimizeWarmStart pins the tentpole claim that warm-starting
// the between-pass re-analyses (core.ReanalyzeInPlace seeded from each
// pass's edit set) beats re-solving from scratch. The workload is
// pre-optimized with the compiler baseline so the interprocedural
// rounds make small, targeted edits — the regime the warm start exists
// for. The cold pipeline — identical passes, NoWarmStart analysis — is
// timed outside the loop; speedup-vs-cold is its wall time over the
// warm per-op time. The margin stays moderate: even pre-optimized, each
// dead-code round dirties most routines, so its re-analysis re-solves
// nearly the whole program, if in place on the shape-preserving path
// (the per-routine BenchmarkReanalyze* family pins the
// order-of-magnitude small-edit wins); on 2 vCPUs it measures about
// 1.4. Both pipelines produce byte-identical programs
// (TestNoWarmStartByteIdentical).
func BenchmarkOptimizeWarmStart(b *testing.B) {
	prof, ok := progen.ProfileByName("acad")
	if !ok {
		b.Fatal("unknown profile acad")
	}
	raw := progen.Generate(prof.Scale(benchScale), progen.PaperOptOptions(1))
	p, _, err := opt.Optimize(raw, opt.CompilerOptions())
	if err != nil {
		b.Fatal(err)
	}
	cold := opt.DefaultOptions()
	cold.NoWarmStart = true
	// Min of three runs: the cold side is measured outside the b.N loop,
	// so it does not get the benchmark framework's averaging.
	var coldTime time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, _, err := opt.Optimize(p, cold); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(start); i == 0 || d < coldTime {
			coldTime = d
		}
	}
	var rep *opt.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, r, err := opt.Optimize(p, opt.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		rep = r
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Reanalyses), "reanalyses")
	if perOp := b.Elapsed().Seconds() / float64(b.N); perOp > 0 {
		b.ReportMetric(coldTime.Seconds()/perOp, "speedup-vs-cold")
	}
}

// BenchmarkAnalyzeParallel compares the analysis pipeline at
// parallelism 1 against GOMAXPROCS on the large progen workload and
// reports the wall-clock speedup of the parallel per-routine stages
// (CFG build + DEF/UBD init + PSG build, the Figure 13 hot path) as
// b.ReportMetric. BenchmarkPhasesParallel isolates the remaining two
// stages, the SCC-scheduled interprocedural phases.
func BenchmarkAnalyzeParallel(b *testing.B) {
	p := generate(b, "gcc") // the largest profile in the suite
	workers := runtime.GOMAXPROCS(0)
	stageWall := func(st *core.Stats) time.Duration {
		return st.CFGBuild + st.Init + st.PSGBuild
	}
	var serialStages, parallelStages, serialTotal, parallelTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Analyze(p, core.WithOpenWorld(), core.WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		par, err := core.Analyze(p, core.WithOpenWorld(), core.WithParallelism(workers))
		if err != nil {
			b.Fatal(err)
		}
		serialStages += stageWall(&s.Stats)
		parallelStages += stageWall(&par.Stats)
		serialTotal += s.Stats.Total()
		parallelTotal += par.Stats.Total()
	}
	b.ReportMetric(float64(workers), "workers")
	if parallelStages > 0 {
		b.ReportMetric(serialStages.Seconds()/parallelStages.Seconds(), "stage-speedup")
	}
	if parallelTotal > 0 {
		b.ReportMetric(serialTotal.Seconds()/parallelTotal.Seconds(), "total-speedup")
	}
}

// BenchmarkPhasesParallel isolates the interprocedural phases: the
// same program analyzed at parallelism 1 and at GOMAXPROCS, reporting
// the phase-1 + phase-2 wall time of each and the speedup. The acad
// profile is the suite's largest routine count; progen's layered call
// DAG condenses to thousands of single-routine components spread over
// few waves, so every wave offers wide independent work — the shape
// the SCC schedule exploits (summaries stay byte-identical either
// way; TestParallelSerialEquivalence asserts it).
func BenchmarkPhasesParallel(b *testing.B) {
	p := generate(b, "acad")
	workers := runtime.GOMAXPROCS(0)
	phaseWall := func(st *core.Stats) time.Duration { return st.Phase1 + st.Phase2 }
	var serial, parallel time.Duration
	var comps, waves int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Analyze(p, core.WithOpenWorld(), core.WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		par, err := core.Analyze(p, core.WithOpenWorld(), core.WithParallelism(workers))
		if err != nil {
			b.Fatal(err)
		}
		serial += phaseWall(&s.Stats)
		parallel += phaseWall(&par.Stats)
		comps, waves = s.Stats.SCCComponents, s.Stats.Phase1Waves
	}
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(float64(comps), "components")
	b.ReportMetric(float64(waves), "waves")
	n := float64(b.N)
	b.ReportMetric(serial.Seconds()*1e3/n, "phases-ms-serial")
	b.ReportMetric(parallel.Seconds()*1e3/n, "phases-ms-parallel")
	if parallel > 0 {
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "phase-speedup")
	}
	// One untimed instrumented run records the solver counters (these
	// are parallelism-invariant; TestMetricsDeterminism asserts it), so
	// bench-compare can diff worklist traffic and not just wall time.
	b.StopTimer()
	m := obs.NewMetrics()
	if _, err := core.Analyze(p, core.WithOpenWorld(), core.WithParallelism(workers), core.WithMetrics(m)); err != nil {
		b.Fatal(err)
	}
	obs.ReportCounters(b, m,
		"phase1/iterations", "phase1/worklist_pushes", "phase1/edge_relabels",
		"phase2/iterations", "phase2/worklist_pushes")
}

// Extension benchmark: profile-driven layout's modelled i-cache effect.
func BenchmarkLayoutICache(b *testing.B) {
	p := progen.Generate(progen.TestProfile(60), progen.DefaultOptions(2))
	m := emu.New(p.Clone())
	profile := m.EnableProfile()
	if _, err := m.Run(500_000_000); err != nil {
		b.Fatal(err)
	}
	missRate := func(q *prog.Program) float64 {
		mm := emu.New(q.Clone())
		c := emu.NewICache()
		c.Lines = 64
		mm.EnableICache(c)
		if _, err := mm.Run(500_000_000); err != nil {
			b.Fatal(err)
		}
		return c.MissRate()
	}
	before := missRate(p)
	var after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := layout.Optimize(p, profile)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		after = missRate(out)
		b.StartTimer()
	}
	b.ReportMetric(before*100, "%miss-before")
	b.ReportMetric(after*100, "%miss-after")
}

// Sanity benchmark for the harness itself at tiny scale.
func BenchmarkHarnessRun(b *testing.B) {
	prof, _ := progen.ProfileByName("compress")
	prof = prof.Scale(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(prof, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

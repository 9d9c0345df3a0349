// Package bench regenerates the paper's experimental results: Tables
// 1–5 and Figures 13–15 of the evaluation (§4), plus the §1
// optimization-improvement claim, over synthetic benchmarks generated
// to match each paper benchmark's structural profile.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/progen"
)

// Result holds everything measured for one benchmark.
type Result struct {
	Profile progen.Profile

	// Stats from the default analysis (branch nodes on).
	Stats core.Stats

	// Comparison holds the Table 4 and Table 5 comparison runs.
	Comparison

	// Prog holds the generated program's structural statistics.
	Prog prog.Stats

	// HeapDelta is the measured heap growth across the analysis, the
	// run-time analogue of the paper's memory column.
	HeapDelta uint64

	// Metrics is the solver-telemetry snapshot of the default analysis:
	// worklist traffic, relabels and per-component iteration histograms
	// (see internal/obs). The stable part is parallelism-invariant.
	Metrics obs.Snapshot
}

// Counter returns the named solver counter from the result's metrics
// snapshot, 0 if absent.
func (r *Result) Counter(name string) uint64 {
	for _, c := range r.Metrics.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Run generates the benchmark for prof and measures everything the
// tables and figures need. parallel bounds the analysis worker pool
// (0 = GOMAXPROCS); the measured results are identical for every
// value, only the timings change.
func Run(prof progen.Profile, seed uint64, parallel int) (*Result, error) {
	p := progen.Generate(prof, progen.DefaultOptions(seed))
	res := &Result{Profile: prof, Prog: prog.CollectStats(p)}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := obs.NewMetrics()
	a, err := core.Analyze(p, core.WithOpenWorld(), core.WithParallelism(parallel),
		core.WithMetrics(m))
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	res.Stats = a.Stats
	res.Metrics = m.Snapshot()
	if after.HeapAlloc > before.HeapAlloc {
		res.HeapDelta = after.HeapAlloc - before.HeapAlloc
	}

	if res.Comparison, err = Compare(p, core.WithOpenWorld(), core.WithParallelism(parallel)); err != nil {
		return nil, err
	}
	return res, nil
}

// Comparison is what Tables 4 and 5 set a PSG against: the same
// analysis without branch nodes, and the whole-program CFG the PSG
// replaces.
type Comparison struct {
	// NoBranchStats from the analysis with branch nodes disabled
	// (Table 4's comparison).
	NoBranchStats core.Stats

	// BaselineArcs counts the whole-program CFG's arcs including call
	// and return arcs (Table 5's comparison).
	BaselineArcs int

	// BaselineTime is the time for the whole-program-CFG liveness, the
	// approach the PSG replaces.
	BaselineTime time.Duration
}

// Compare runs the comparison analyses of p under the analysis
// options opts: core with branch nodes disabled, and the
// whole-program-CFG baseline in the same world model and worker-pool
// size.
func Compare(p *prog.Program, opts ...core.Option) (Comparison, error) {
	conf := core.NewConfig(opts...)
	nb, err := core.Analyze(p, core.WithConfig(conf), core.WithBranchNodes(false))
	if err != nil {
		return Comparison{}, err
	}
	bopts := []baseline.Option{baseline.WithParallelism(conf.Parallelism)}
	if !conf.LinkIndirectCalls {
		bopts = append(bopts, baseline.WithOpenWorld())
	}
	start := time.Now()
	sg, _ := baseline.Analyze(p, bopts...)
	return Comparison{
		NoBranchStats: nb.Stats,
		BaselineArcs:  sg.NumArcs(),
		BaselineTime:  time.Since(start),
	}, nil
}

// RunAll measures every paper profile at the given scale (1.0 =
// paper-sized programs) with the given analysis parallelism. Progress
// lines go to progress when non-nil.
func RunAll(scale float64, seed uint64, parallel int, progress io.Writer) ([]*Result, error) {
	var out []*Result
	for _, prof := range progen.Profiles {
		if progress != nil {
			fmt.Fprintf(progress, "running %-10s (scale %.2f)...\n", prof.Name, scale)
		}
		r, err := Run(prof.Scale(scale), seed, parallel)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", prof.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// OptResult holds the §1 optimization experiment for one workload.
type OptResult struct {
	Seed          uint64
	Report        *opt.Report
	StepsBefore   int64
	StepsAfter    int64
	DynamicImprov float64 // fraction of dynamic instructions eliminated
}

// RunOpt generates runnable workloads, pre-optimizes them with the
// compiler baseline (intraprocedural dead-code elimination under
// calling-standard assumptions — the paper's programs were produced by
// "the same highly optimizing back-end"), then applies the
// interprocedural optimizations, verifies behaviour with the emulator,
// and reports the improvement the summaries added — the paper's
// "5–10%, up to 20%" claim (§1).
func RunOpt(nRoutines int, seeds []uint64) ([]*OptResult, error) {
	var out []*OptResult
	for _, seed := range seeds {
		raw := progen.Generate(progen.TestProfile(nRoutines), progen.PaperOptOptions(seed))
		p, _, err := opt.Optimize(raw, opt.CompilerOptions())
		if err != nil {
			return nil, fmt.Errorf("seed %d compiler baseline: %w", seed, err)
		}
		before, err := emu.Run(p.Clone(), 500_000_000)
		if err != nil {
			return nil, fmt.Errorf("seed %d pre-run: %w", seed, err)
		}
		optimized, rep, err := opt.Optimize(p, opt.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		after, err := emu.Run(optimized, 500_000_000)
		if err != nil {
			return nil, fmt.Errorf("seed %d post-run: %w", seed, err)
		}
		if !emu.SameOutput(before, after) {
			return nil, fmt.Errorf("seed %d: optimization changed observable output", seed)
		}
		out = append(out, &OptResult{
			Seed:          seed,
			Report:        rep,
			StepsBefore:   before.Steps,
			StepsAfter:    after.Steps,
			DynamicImprov: 1 - float64(after.Steps)/float64(before.Steps),
		})
	}
	return out, nil
}

package main

// `spike analyze` and `spike check`: the batch driver over one
// executable, and the correctness harness over the same input.

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/prog"
)

// spikeOptions collects everything the analyze driver is asked to do,
// one field per flag.
type spikeOptions struct {
	asmIn     bool   // input is assembly text instead of an SXE image
	outFile   string // write the resulting program as an SXE image
	asmOut    bool   // print the program as assembly
	opt       bool   // apply the Figure 1 optimizations
	summaries bool   // print routine summaries
	stats     bool   // print analysis statistics
	dot       string // print this routine's PSG as Graphviz DOT and stop
	verify    bool   // compare emulator output before/after optimization
	format    string // analysis output format: "text" or "json"
	openWorld bool   // paper §3.5 indirect-call handling
	noBranch  bool   // disable §3.6 branch nodes
	parallel  int    // analysis worker-pool size (0 = GOMAXPROCS)
	traceFile string // write a Chrome trace_event capture here
	metrics   bool   // print the solver telemetry
	maxSteps  int64  // emulator step budget for verify
	cpuProf   string // write a CPU profile here
	memProf   string // write a heap profile here on exit
}

// apiOptions is the wire-level option set the flags select. Going
// through api.Options keeps the CLI, the daemon and the snapshot
// format on the same Key()-stable builder: a snapshot written here
// restores in the daemon, and both cache under identical keys.
func (o *spikeOptions) apiOptions() api.Options {
	return api.Options{OpenWorld: o.openWorld, NoBranchNodes: o.noBranch}
}

// analysisOptions translates the driver flags into core options.
func (o *spikeOptions) analysisOptions() []core.Option {
	return o.apiOptions().AnalysisOptions(core.WithParallelism(o.parallel))
}

// analyzeMain is `spike analyze`: parse the batch-driver flags and run.
func analyzeMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var o spikeOptions
	fs.BoolVar(&o.asmIn, "asm", false, "input is assembly text")
	fs.StringVar(&o.outFile, "o", "", "output SXE file")
	fs.BoolVar(&o.asmOut, "S", false, "print assembly instead of encoding")
	fs.BoolVar(&o.opt, "opt", false, "apply optimizations")
	fs.BoolVar(&o.summaries, "summaries", false, "print routine summaries")
	fs.BoolVar(&o.stats, "stats", false, "print analysis statistics, with the PSG vs CFG (Table 5), branch-node (Table 4) and SCC comparisons")
	fs.StringVar(&o.dot, "dot", "", "emit the named `routine`'s PSG as Graphviz DOT and exit")
	fs.BoolVar(&o.verify, "verify", false, "verify behaviour via the emulator")
	fs.StringVar(&o.format, "format", "text", "analysis output format: text or json")
	fs.BoolVar(&o.openWorld, "open-world", false, "paper §3.5 indirect-call handling")
	fs.BoolVar(&o.noBranch, "no-branch-nodes", false, "disable §3.6 branch nodes")
	fs.IntVar(&o.parallel, "parallel", 0, "analysis worker-pool size (0 = GOMAXPROCS)")
	fs.StringVar(&o.traceFile, "trace", "", "write a Chrome trace_event JSON capture to this file")
	fs.BoolVar(&o.metrics, "metrics", false, "print solver telemetry counters and histograms")
	fs.Int64Var(&o.maxSteps, "max-steps", 100_000_000, "emulator step budget for -verify")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	stopProf, err := startProfiles(o.cpuProf, o.memProf, fs.Output())
	if err != nil {
		return err
	}
	defer stopProf()
	return run(stdout, fs.Arg(0), o)
}

// checkMain is `spike check`: the correctness harness as a first-class
// subcommand.
func checkMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	asmIn := fs.Bool("asm", false, "input is assembly text")
	maxSteps := fs.Int64("max-steps", 100_000_000, "emulator step budget for the dynamic oracle")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	p, _, err := readProgram(fs.Arg(0), *asmIn)
	if err != nil {
		return err
	}
	return selfcheck(stdout, p, *maxSteps)
}

func run(w io.Writer, input string, o spikeOptions) error {
	switch o.format {
	case "", "text", "json":
	default:
		return fmt.Errorf("unknown -format %q (want text or json)", o.format)
	}
	p, _, err := readProgram(input, o.asmIn)
	if err != nil {
		return err
	}

	// The tracer and metrics registry are shared by the analysis and the
	// optimizer's re-analyses below: the capture and the counters cover
	// the whole process run, not just the first Analyze.
	var tr *obs.Tracer
	if o.traceFile != "" {
		tr = obs.NewTracer()
	}
	var met *obs.Metrics
	if o.metrics || o.format == "json" {
		met = obs.NewMetrics()
	}
	analysisOpts := o.analysisOptions()
	if tr != nil {
		analysisOpts = append(analysisOpts, core.WithTracer(tr))
	}
	if met != nil {
		analysisOpts = append(analysisOpts, core.WithMetrics(met))
	}
	// Bracket the analysis with ReadMemStats so -stats can report what
	// the analysis itself allocated. The JSON document stays free of
	// these numbers: they depend on GC timing and would break the
	// byte-identical golden.
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	a, err := core.Analyze(p, analysisOpts...)
	if err != nil {
		return err
	}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	if o.dot != "" {
		ri, ok := p.Index(o.dot)
		if !ok {
			return fmt.Errorf("no routine named %q", o.dot)
		}
		a.PSG.WriteDot(w, ri)
		return nil
	}

	// The optimizer runs before any document is emitted: its report (and
	// the -verify result) belong inside the JSON document, and its
	// re-analyses must be in the metrics snapshot the document carries —
	// a trailing plain-text report would make the stdout of
	// `-format=json -opt` unparsable as a single JSON value.
	out := p
	var rep *opt.Report
	var optRep *api.OptReport
	if o.opt {
		var before emu.Result
		if o.verify {
			if before, err = emu.Run(p.Clone(), o.maxSteps); err != nil {
				return fmt.Errorf("pre-optimization run: %w", err)
			}
		}
		// The optimizer starts from a instead of analyzing p again, and
		// leaves it intact for the reports below.
		opts := opt.DefaultOptions()
		opts.Analysis = core.NewConfig(analysisOpts...)
		out, _, rep, err = opt.OptimizeFrom(a, opts)
		if err != nil {
			return err
		}
		wr := api.OptReportOf(rep)
		optRep = &wr
		if o.verify {
			after, err := emu.Run(out.Clone(), o.maxSteps)
			if err != nil {
				return fmt.Errorf("post-optimization run: %w", err)
			}
			if !emu.SameOutput(before, after) {
				return fmt.Errorf("verification failed: output changed")
			}
			optRep.Verify = &api.VerifyResult{
				OutputIdentical: true,
				StepsBefore:     before.Steps,
				StepsAfter:      after.Steps,
				Improvement:     api.ImprovementPct(before.Steps, after.Steps),
			}
		}
	}

	if o.format == "json" {
		// The document carries the summaries, the stats and the
		// optimizer report; the flags need not be repeated.
		if err := writeJSON(w, a, met, optRep); err != nil {
			return err
		}
	} else {
		if o.stats {
			// The comparison runs stay out of the trace and the metrics,
			// which describe the run's own analysis.
			cmp, err := bench.Compare(p, o.analysisOptions()...)
			if err != nil {
				return err
			}
			printStats(w, a, cmp)
			fmt.Fprintf(w, "heap allocated: %.2f MB in %d allocations (analysis total)\n",
				float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/(1<<20),
				msAfter.Mallocs-msBefore.Mallocs)
		}
		if o.summaries {
			printSummaries(w, a)
		}
		if rep != nil {
			fmt.Fprintln(w, rep)
			if v := optRep.Verify; v != nil {
				fmt.Fprintf(w, "verified: output identical; dynamic instructions %d → %d (%s improvement)\n",
					v.StepsBefore, v.StepsAfter, v.Improvement)
			}
		}
	}

	// Render the telemetry after the optimizer has run so the table
	// includes its re-analyses and liveness solves.
	if o.metrics && o.format != "json" {
		fmt.Fprintln(w, "metrics:")
		met.Snapshot().WriteText(w)
	}
	if tr != nil {
		if err := tr.WriteTraceFile(o.traceFile); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote trace %s (%d events)\n", o.traceFile, tr.NumEvents())
	}

	if o.asmOut {
		fmt.Fprint(w, prog.Disassemble(out))
	}
	if o.outFile != "" {
		if err := writeImage(o.outFile, out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d routines, %d instructions)\n",
			o.outFile, len(out.Routines), out.NumInstructions())
	}
	return nil
}

// selfcheck runs the input through the internal/check harness: the
// differential runner over the full option matrix, the PSG invariant
// checker on both world anchors, the Figure 6 labeling reference, and
// the emulator-backed dynamic oracle. Any violation makes the run fail.
func selfcheck(w io.Writer, p *prog.Program, maxSteps int64) error {
	vs := check.Program(p, &check.Options{MaxSteps: maxSteps})
	for _, v := range vs {
		fmt.Fprintln(w, v)
	}
	if len(vs) > 0 {
		return fmt.Errorf("selfcheck: %d violation(s)", len(vs))
	}
	fmt.Fprintln(w, "selfcheck: differential, invariant, labeling and dynamic oracles clean")
	return nil
}

// printStats prints the analysis statistics, the PSG's size against
// the whole-program CFG (Table 5) and against the PSG without branch
// nodes (Table 4), and the shape of the SCC condensation the phases
// were scheduled on.
func printStats(w io.Writer, a *core.Analysis, cmp bench.Comparison) {
	s := &a.Stats
	nb := &cmp.NoBranchStats
	fmt.Fprintf(w, "routines:      %d\n", s.Routines)
	fmt.Fprintf(w, "instructions:  %d\n", s.Instructions)
	fmt.Fprintf(w, "basic blocks:  %d\n", s.BasicBlocks)
	fmt.Fprintf(w, "cfg arcs:      %d (intraprocedural)\n", s.CFGArcs)
	fmt.Fprintf(w, "psg nodes:     %d\n", s.PSGNodes)
	fmt.Fprintf(w, "psg edges:     %d\n", s.PSGEdges)
	fmt.Fprintf(w, "psg vs cfg:    %.2f nodes/block, %.2f edges/arc over %d whole-program arcs (Table 5)\n",
		ratio(s.PSGNodes, s.BasicBlocks), ratio(s.PSGEdges, cmp.BaselineArcs), cmp.BaselineArcs)
	edgeRed, nodeInc := 0.0, 0.0
	if nb.PSGEdges > 0 {
		edgeRed = (1 - ratio(s.PSGEdges, nb.PSGEdges)) * 100
	}
	if nb.PSGNodes > 0 {
		nodeInc = (ratio(s.PSGNodes, nb.PSGNodes) - 1) * 100
	}
	fmt.Fprintf(w, "branch nodes:  %d psg edges with, %d without: %.1f%% edge reduction, %.1f%% node increase (Table 4)\n",
		s.PSGEdges, nb.PSGEdges, edgeRed, nodeInc)
	fmt.Fprintf(w, "graph memory:  %.2f MB\n", float64(s.GraphBytes)/(1<<20))
	fmt.Fprintf(w, "call graph:    %d components, phase1 %d waves/%d iterations, phase2 %d waves/%d iterations\n",
		s.SCCComponents, s.Phase1Waves, s.Phase1Iterations, s.Phase2Waves, s.Phase2Iterations)
	printSCC(w, a)
	fr := s.StageFractions()
	fmt.Fprintf(w, "analysis time: %v wall, %v cpu, %d workers (cfg %.0f%%, init %.0f%%, psg %.0f%%, phase1 %.0f%%, phase2 %.0f%%)\n",
		s.Total(), s.TotalCPU(), s.Parallelism,
		fr[0]*100, fr[1]*100, fr[2]*100, fr[3]*100, fr[4]*100)
	fmt.Fprintf(w, "stage timing (wall / cpu):\n")
	for _, st := range []struct {
		name      string
		wall, cpu time.Duration
	}{
		{"cfg build", s.CFGBuild, s.CFGBuildCPU},
		{"init", s.Init, s.InitCPU},
		{"psg build", s.PSGBuild, s.PSGBuildCPU},
		{"phase 1", s.Phase1, s.Phase1CPU},
		{"phase 2", s.Phase2, s.Phase2CPU},
	} {
		fmt.Fprintf(w, "  %-10s %12v %12v\n", st.name, st.wall, st.cpu)
	}
	fmt.Fprintf(w, "  %-10s %12v %12s (scheduling, outside Figure 13 stages)\n",
		"call graph", s.CallGraphBuild, "-")
}

// printSCC reports the condensation's recursion, its largest component
// and — under the closed-world configuration — the component pinned by
// indirect calls.
func printSCC(w io.Writer, a *core.Analysis) {
	cg := a.CallGraph()
	recursive, largest := 0, -1
	for c := 0; c < cg.NumComponents(); c++ {
		if cg.Recursive(c) {
			recursive++
		}
		if largest < 0 || len(cg.Members(c)) > len(cg.Members(largest)) {
			largest = c
		}
	}
	fmt.Fprintf(w, "scc:           %d recursive", recursive)
	if largest >= 0 {
		fmt.Fprintf(w, ", largest %d routines (component %d)", len(cg.Members(largest)), largest)
	}
	if cg.Pinned() {
		pc := cg.PinnedComponent()
		fmt.Fprintf(w, ", indirect pin component %d (%d routines)\n", pc, len(cg.Members(pc)))
	} else {
		fmt.Fprintf(w, ", no indirect pin\n")
	}
}

// ratio divides two counters for display, reading 0/0 as 0 rather
// than NaN so degenerate programs (no blocks, no arcs) still print.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func printSummaries(w io.Writer, a *core.Analysis) {
	for ri, r := range a.Prog.Routines {
		s := a.Summary(ri)
		fmt.Fprintf(w, "%s:\n", r.Name)
		for e := range s.CallUsed {
			fmt.Fprintf(w, "  entry %d: call-used=%v call-defined=%v call-killed=%v live-at-entry=%v\n",
				e, s.CallUsed[e], s.CallDefined[e], s.CallKilled[e], s.LiveAtEntry[e])
		}
		for x := range s.LiveAtExit {
			fmt.Fprintf(w, "  exit %d (block %d): live-at-exit=%v\n",
				x, s.ExitBlocks[x], s.LiveAtExit[x])
		}
		if !s.SavedRestored.IsEmpty() {
			fmt.Fprintf(w, "  saved/restored: %v\n", s.SavedRestored)
		}
	}
}

// Command spike is the post-link-time optimizer driver. It has five
// subcommands:
//
//	spike analyze [flags] input   analyze (and optionally optimize) one
//	                              executable — the classic batch driver
//	spike serve   [flags]         run the analysis service daemon
//	                              (identical to cmd/spiked)
//	spike check   [flags] input   run the correctness harness on the
//	                              input: differential analysis across
//	                              the option matrix, PSG invariant
//	                              checks, the Figure 6 labeling
//	                              reference, the emulator-backed oracle
//	spike snapshot <save|load> input snap
//	                              persist a converged analysis as a
//	                              binary snapshot image, or restore one
//	                              without re-running the solver
//	spike top     [flags]         poll a running daemon's /metrics and
//	                              render a live table: per-route qps,
//	                              p50/p99, cache hit ratio, inflight,
//	                              slow queries
//
// A bare `spike [flags] input` still works as an alias for `spike
// analyze` (with a deprecation note on stderr), so existing scripts
// keep running.
//
// Flags of `spike analyze`:
//
//	-asm          treat the input as assembly text instead of an SXE image
//	-o file       write the (optimized) program as an SXE image
//	-S            print the program as assembly instead of encoding
//	-opt          apply the optimizations (dead code, spills, save/restore)
//	-summaries    print each routine's five interprocedural summary sets
//	-stats        print analysis stage timing and graph sizes
//	-format f     analysis output format: text (default) or json; json
//	              emits the versioned api.AnalysisDoc document with the
//	              summaries, the SCC schedule counts and the timings
//	-verify       run the program before and after optimization and
//	              compare observable output
//	-open-world   use the paper's §3.5 indirect-call assumptions instead
//	              of the closed-world default
//	-no-branch-nodes  disable §3.6 branch nodes
//	-parallel N   analysis worker-pool size (0 = GOMAXPROCS)
//	-trace file   write a Chrome trace_event JSON capture of the pipeline
//	              to file (open in Perfetto or chrome://tracing)
//	-metrics      print the solver telemetry (worklist traffic, per-SCC
//	              iteration histograms, relabels, pool hit rates)
//	-cpuprofile f write a CPU profile of the run to f
//	-memprofile f write a heap profile to f on exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/api"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/serve"
	"repro/internal/sxe"
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
	verify    bool   // compare emulator output before/after optimization
	selfcheck bool   // run the internal/check oracles on the input
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

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: spike <command> [flags] ...

Commands:
  analyze  [flags] input            analyze and optionally optimize an executable
  serve    [flags]                  run the analysis service daemon (HTTP/JSON)
  check    [flags] input            run the correctness harness on the input
  snapshot <save|load> input snap   persist or restore a converged analysis
  top      [flags]                  live serving metrics of a running daemon

Run 'spike <command> -h' for a command's flags. A bare
'spike [flags] input' is a deprecated alias for 'spike analyze'.
`)
}

func main() {
	args := os.Args[1:]
	cmd := ""
	if len(args) > 0 {
		switch args[0] {
		case "analyze", "serve", "check", "snapshot", "top":
			cmd, args = args[0], args[1:]
		case "help", "-h", "--help":
			usage(os.Stdout)
			return
		}
	}
	var err error
	switch cmd {
	case "serve":
		err = serve.RunCLI("spike serve", args, os.Stdout, os.Stderr)
	case "check":
		err = checkMain(args)
	case "snapshot":
		err = snapshotMain(args)
	case "top":
		err = topMain(args)
	case "analyze":
		err = analyzeMain(args)
	default:
		// Legacy bare invocation: same flags, same behavior.
		if len(args) == 0 {
			usage(os.Stderr)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr,
			"spike: note: bare invocation is deprecated; use 'spike analyze [flags] input'")
		err = analyzeMain(args)
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "spike:", err)
		os.Exit(1)
	}
}

// analyzeMain is `spike analyze`: parse the batch-driver flags and run.
func analyzeMain(args []string) error {
	fs := flag.NewFlagSet("spike analyze", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var o spikeOptions
	fs.BoolVar(&o.asmIn, "asm", false, "input is assembly text")
	fs.StringVar(&o.outFile, "o", "", "output SXE file")
	fs.BoolVar(&o.asmOut, "S", false, "print assembly instead of encoding")
	fs.BoolVar(&o.opt, "opt", false, "apply optimizations")
	fs.BoolVar(&o.summaries, "summaries", false, "print routine summaries")
	fs.BoolVar(&o.stats, "stats", false, "print analysis statistics")
	fs.BoolVar(&o.verify, "verify", false, "verify behaviour via the emulator")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the correctness harness (deprecated alias of 'spike check')")
	fs.StringVar(&o.format, "format", "text", "analysis output format: text or json")
	fs.BoolVar(&o.openWorld, "open-world", false, "paper §3.5 indirect-call handling")
	fs.BoolVar(&o.noBranch, "no-branch-nodes", false, "disable §3.6 branch nodes")
	fs.IntVar(&o.parallel, "parallel", 0, "analysis worker-pool size (0 = GOMAXPROCS)")
	fs.StringVar(&o.traceFile, "trace", "", "write a Chrome trace_event JSON capture to this file")
	fs.BoolVar(&o.metrics, "metrics", false, "print solver telemetry counters and histograms")
	fs.Int64Var(&o.maxSteps, "max-steps", 100_000_000, "emulator step budget for -verify")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spike analyze [flags] input")
		fs.Usage()
		return fmt.Errorf("expected exactly one input, got %d", fs.NArg())
	}
	stopProf, err := startProfiles(&o)
	if err != nil {
		return err
	}
	defer stopProf()
	return run(os.Stdout, fs.Arg(0), o)
}

// checkMain is `spike check`: the correctness harness as a first-class
// subcommand.
func checkMain(args []string) error {
	fs := flag.NewFlagSet("spike check", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	asmIn := fs.Bool("asm", false, "input is assembly text")
	maxSteps := fs.Int64("max-steps", 100_000_000, "emulator step budget for the dynamic oracle")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spike check [flags] input")
		fs.Usage()
		return fmt.Errorf("expected exactly one input, got %d", fs.NArg())
	}
	return run(os.Stdout, fs.Arg(0), spikeOptions{
		asmIn:     *asmIn,
		selfcheck: true,
		maxSteps:  *maxSteps,
	})
}

// startProfiles starts the requested CPU profile and arranges the heap
// profile; the returned stop must run at process exit.
func startProfiles(o *spikeOptions) (stop func(), err error) {
	stop = func() {}
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if o.memProf != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(o.memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spike:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "spike:", err)
			}
		}
	}
	return stop, nil
}

func run(w io.Writer, input string, o spikeOptions) error {
	switch o.format {
	case "", "text", "json":
	default:
		return fmt.Errorf("unknown -format %q (want text or json)", o.format)
	}
	data, err := os.ReadFile(input)
	if err != nil {
		return err
	}
	var p *prog.Program
	if o.asmIn {
		p, err = prog.Assemble(string(data))
	} else {
		p, err = sxe.Decode(data)
	}
	if err != nil {
		return err
	}
	if o.selfcheck {
		return selfcheck(w, p, o.maxSteps)
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
		opts := opt.DefaultOptions()
		opts.Analysis = core.NewConfig(analysisOpts...)
		out, rep, err = opt.Optimize(p, opts)
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
			printStats(w, &a.Stats)
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
		f, err := os.Create(o.outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sxe.Write(f, out); err != nil {
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

func printStats(w io.Writer, s *core.Stats) {
	fmt.Fprintf(w, "routines:      %d\n", s.Routines)
	fmt.Fprintf(w, "instructions:  %d\n", s.Instructions)
	fmt.Fprintf(w, "basic blocks:  %d\n", s.BasicBlocks)
	fmt.Fprintf(w, "cfg arcs:      %d (intraprocedural)\n", s.CFGArcs)
	fmt.Fprintf(w, "psg nodes:     %d\n", s.PSGNodes)
	fmt.Fprintf(w, "psg edges:     %d\n", s.PSGEdges)
	fmt.Fprintf(w, "graph memory:  %.2f MB\n", float64(s.GraphBytes)/(1<<20))
	fmt.Fprintf(w, "call graph:    %d components, phase1 %d waves/%d iterations, phase2 %d waves/%d iterations\n",
		s.SCCComponents, s.Phase1Waves, s.Phase1Iterations, s.Phase2Waves, s.Phase2Iterations)
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

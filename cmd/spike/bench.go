package main

// `spike bench`: regenerate the paper's evaluation (§4) — Tables 1–5
// and Figures 13–15 over all sixteen benchmark profiles, plus the §1
// optimization-improvement experiment.
//
//	spike bench -all                 full-scale run of every experiment
//	spike bench -scale 0.1 -all      quick run at 10% size
//	spike bench -tables 2,4          selected tables only
//	spike bench -tables waves        the SCC/wave phase-schedule table
//	spike bench -tables counters     the solver worklist/relabel counters
//	spike bench -opt                 the optimization experiment only
//	spike bench -json                the measurement sweep as one JSON
//	                                 document (api.Stats wire form)

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
)

func benchMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		all      = fs.Bool("all", false, "run every table and figure")
		tables   = fs.String("tables", "", "comma-separated table/figure list, e.g. 2,3,f13")
		scale    = fs.Float64("scale", 1.0, "benchmark scale factor (1.0 = paper size)")
		seed     = fs.Uint64("seed", 1, "generator seed")
		doOpt    = fs.Bool("opt", false, "run the optimization-improvement experiment")
		parallel = fs.Int("parallel", 0, "analysis worker-pool size (0 = GOMAXPROCS)")
		quiet    = fs.Bool("q", false, "suppress progress output")
		jsonOut  = fs.Bool("json", false, "emit results as the versioned JSON document instead of tables")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}

	want := map[string]bool{}
	if *all {
		for _, t := range []string{"1", "2", "3", "4", "5", "f13", "f14", "f15", "waves", "counters"} {
			want[t] = true
		}
	}
	for _, t := range strings.Split(*tables, ",") {
		if t = strings.TrimSpace(t); t != "" {
			want[t] = true
		}
	}
	if *jsonOut && len(want) == 0 {
		// -json runs the full measurement sweep; no table selection needed.
		want["json"] = true
	}
	if len(want) == 0 && !*doOpt {
		fs.Usage()
		return fmt.Errorf("nothing to do (use -all, -tables or -opt)")
	}

	stopProf, err := startProfiles(*cpuProf, *memProf, fs.Output())
	if err != nil {
		return err
	}
	defer stopProf()

	if len(want) > 0 {
		var progress io.Writer
		if !*quiet {
			progress = fs.Output()
		}
		results, err := bench.RunAll(*scale, *seed, *parallel, progress)
		if err != nil {
			return err
		}
		if *jsonOut {
			return bench.WriteJSON(stdout, results)
		}
		emit := func(key string, f func()) {
			if want[key] {
				f()
				fmt.Fprintln(stdout)
			}
		}
		emit("1", func() { bench.Table1(stdout, results) })
		emit("2", func() { bench.Table2(stdout, results) })
		emit("3", func() { bench.Table3(stdout, results) })
		emit("4", func() { bench.Table4(stdout, results) })
		emit("5", func() { bench.Table5(stdout, results) })
		emit("f13", func() { bench.Figure13(stdout, results) })
		emit("waves", func() { bench.WavesTable(stdout, results) })
		emit("counters", func() { bench.CountersTable(stdout, results) })
		emit("f14", func() {
			bench.Figure14(stdout, results)
			fmt.Fprintln(stdout)
			bench.PlotFigure14(stdout, results)
		})
		emit("f15", func() {
			bench.Figure15(stdout, results)
			fmt.Fprintln(stdout)
			bench.PlotFigure15(stdout, results)
		})
	}

	if *doOpt || *all {
		optResults, err := bench.RunOpt(60, []uint64{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			return err
		}
		bench.OptTable(stdout, optResults)
	}
	return nil
}

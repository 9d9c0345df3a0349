package main

// `spike layout`: the profile-driven half of the Spike pipeline. It
// runs an executable under the emulator to collect an execution
// profile, restructures the code (Pettis–Hansen block chaining and
// call-affinity routine placement), verifies the result, and reports
// the instruction-cache effect of the new layout.

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"repro/internal/emu"
	"repro/internal/layout"
	"repro/internal/prog"
)

func layoutMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		asmIn      = fs.Bool("asm", false, "input is assembly text")
		outFile    = fs.String("o", "", "output SXE file")
		cacheLines = fs.Int("cache-lines", 256, "i-cache lines (32-byte lines)")
		hotN       = fs.Int("hot", 5, "print the N hottest routines")
		maxSteps   = fs.Int64("max-steps", 500_000_000, "emulator step budget")
	)
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	p, _, err := readProgram(fs.Arg(0), *asmIn)
	if err != nil {
		return err
	}

	missRate := func(q *prog.Program) (float64, int64, error) {
		m := emu.New(q.Clone())
		c := emu.NewICache()
		c.Lines = *cacheLines
		m.EnableICache(c)
		res, err := m.Run(*maxSteps)
		return c.MissRate(), res.Steps, err
	}

	// Profile run.
	m := emu.New(p.Clone())
	profile := m.EnableProfile()
	res, err := m.Run(*maxSteps)
	if err != nil {
		return fmt.Errorf("profile run: %w", err)
	}
	fmt.Fprintf(stdout, "profiled %d dynamic instructions\n", res.Steps)

	// Hottest routines.
	type hot struct {
		name  string
		count int64
	}
	var hots []hot
	for ri, r := range p.Routines {
		hots = append(hots, hot{r.Name, profile.RoutineCount(ri)})
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].count > hots[j].count })
	fmt.Fprintln(stdout, "hottest routines:")
	for i := 0; i < *hotN && i < len(hots); i++ {
		fmt.Fprintf(stdout, "  %-16s %12d instructions (%.1f%%)\n",
			hots[i].name, hots[i].count, 100*float64(hots[i].count)/float64(res.Steps))
	}

	beforeRate, _, err := missRate(p)
	if err != nil {
		return err
	}

	out, rep, err := layout.Optimize(p, profile)
	if err != nil {
		return err
	}
	afterRate, afterSteps, err := missRate(out)
	if err != nil {
		return fmt.Errorf("post-layout run: %w", err)
	}

	// Verify behaviour.
	check, err := emu.Run(out.Clone(), *maxSteps)
	if err != nil {
		return err
	}
	orig, err := emu.Run(p.Clone(), *maxSteps)
	if err != nil {
		return err
	}
	if !emu.SameOutput(orig, check) {
		return fmt.Errorf("layout changed observable output")
	}

	fmt.Fprintf(stdout, "\nlayout: %d routines reordered, %+d branches, routine order changed: %v\n",
		rep.RoutinesReordered, rep.BranchesAdded-rep.BranchesRemoved, rep.RoutineOrderChanged)
	fmt.Fprintf(stdout, "i-cache (%d lines × 32 B): miss rate %.4f%% → %.4f%%\n",
		*cacheLines, beforeRate*100, afterRate*100)
	fmt.Fprintf(stdout, "dynamic instructions: %d → %d\n", res.Steps, afterSteps)
	fmt.Fprintln(stdout, "verified: observable output identical")

	if *outFile != "" {
		if err := writeImage(*outFile, out); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *outFile)
	}
	return nil
}

package main

// `spike gen`: synthetic benchmark executables matching the structural
// profiles of the paper's SPECint95 and PC-application benchmarks.
//
//	spike gen -profile gcc -scale 0.5 -o gcc.sxe
//	spike gen -list
//	spike gen -routines 40 -seed 7 -o small.sxe   (small runnable workload)

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/prog"
	"repro/internal/progen"
)

func genMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		profile  = fs.String("profile", "", "paper benchmark profile name (see -list)")
		scale    = fs.Float64("scale", 1.0, "profile scale factor")
		seed     = fs.Uint64("seed", 1, "generator seed")
		routines = fs.Int("routines", 0, "generate a small runnable workload with N routines instead of a profile")
		outFile  = fs.String("o", "", "output SXE file")
		asmOut   = fs.Bool("S", false, "print assembly to stdout")
		list     = fs.Bool("list", false, "list available profiles")
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(stdout, "%-10s %-16s %9s %13s %13s\n", "name", "suite", "routines", "basic blocks", "instructions")
		for _, p := range progen.Profiles {
			fmt.Fprintf(stdout, "%-10s %-16s %9d %13d %13d\n",
				p.Name, p.Suite, p.Routines, p.BasicBlocks, p.Instructions)
		}
		return nil
	}

	var prof progen.Profile
	switch {
	case *routines > 0:
		prof = progen.TestProfile(*routines)
	case *profile != "":
		p, ok := progen.ProfileByName(*profile)
		if !ok {
			return fmt.Errorf("unknown profile %q (use -list)", *profile)
		}
		prof = p.Scale(*scale)
	default:
		fs.Usage()
		return fmt.Errorf("need -profile or -routines")
	}

	p := progen.Generate(prof, progen.DefaultOptions(*seed))
	s := prog.CollectStats(p)
	blocks := 0
	for _, g := range cfg.BuildAll(p) {
		blocks += len(g.Blocks)
	}
	fmt.Fprintf(stdout, "generated %s: %d routines, %d blocks, %d instructions, %d calls, %d branches\n",
		prof.Name, s.Routines, blocks, s.Instructions, s.Calls, s.Branches)

	if *asmOut {
		fmt.Fprint(stdout, prog.Disassemble(p))
	}
	if *outFile != "" {
		if err := writeImage(*outFile, p); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *outFile)
	}
	return nil
}

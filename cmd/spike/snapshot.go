package main

// `spike snapshot save|load`: persist a converged analysis as a binary
// snapshot image (internal/snapshot) and restore it later — the CLI
// face of the daemon's POST /v1/snapshot endpoint, sharing the same
// api.Options builder so a CLI-written snapshot loads into the daemon
// and vice versa.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/snapshot"
	"repro/internal/sxe"
)

// snapshotMain is `spike snapshot <save|load> [flags] input snapfile`.
func snapshotMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	if len(args) == 0 || (args[0] != "save" && args[0] != "load") {
		fs.Usage()
		return fmt.Errorf("snapshot: expected save or load")
	}
	sub, args := args[0], args[1:]
	var (
		asmIn     = fs.Bool("asm", false, "input is assembly text")
		openWorld = fs.Bool("open-world", false, "paper §3.5 indirect-call handling")
		noBranch  = fs.Bool("no-branch-nodes", false, "disable §3.6 branch nodes")
		parallel  = fs.Int("parallel", 0, "analysis worker-pool size (0 = GOMAXPROCS)")
		summaries = fs.Bool("summaries", false, "print routine summaries after restoring (load)")
	)
	if err := parse(fs, args, 2); err != nil {
		return err
	}
	input, snapfile := fs.Arg(0), fs.Arg(1)
	p, _, err := readProgram(input, *asmIn)
	if err != nil {
		return err
	}
	o := api.Options{OpenWorld: *openWorld, NoBranchNodes: *noBranch}
	if sub == "save" {
		return snapshotSave(stdout, p, o,
			o.AnalysisOptions(core.WithParallelism(*parallel)), snapfile)
	}
	// Load takes the option set from the snapshot itself; explicit
	// option flags are an assertion, surfaced as the typed mismatch
	// error when they contradict the image.
	explicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "open-world" || f.Name == "no-branch-nodes" {
			explicit = true
		}
	})
	return snapshotLoad(stdout, p, o, explicit, *parallel, snapfile, *summaries)
}

// snapshotSave analyzes p and writes the snapshot, bound to p's
// identity: the hash of its canonical encoding.
func snapshotSave(w io.Writer, p *prog.Program, o api.Options, opts []core.Option, snapfile string) error {
	canonical, err := sxe.Encode(p)
	if err != nil {
		return err
	}
	start := time.Now()
	a, err := core.Analyze(p, opts...)
	if err != nil {
		return err
	}
	analyzed := time.Since(start)
	id := api.ProgramID(canonical)
	img := snapshot.Capture(a, id).Encode()
	if err := os.WriteFile(snapfile, img, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d bytes, %s, %s (analysis took %v)\n",
		snapfile, len(img), id, o.Key(), analyzed.Round(time.Microsecond))
	return nil
}

func snapshotLoad(w io.Writer, p *prog.Program, o api.Options, explicit bool, parallel int, snapfile string, summaries bool) error {
	img, err := os.ReadFile(snapfile)
	if err != nil {
		return err
	}
	snap, err := snapshot.Decode(img)
	if err != nil {
		return err
	}
	if !explicit {
		if o, err = api.ParseOptionsKey(snap.OptionKey()); err != nil {
			return err
		}
	}
	start := time.Now()
	a, err := snap.Restore(p, o.AnalysisOptions(core.WithParallelism(parallel))...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "restored %s: %s, %s, %d routines (restore took %v)\n",
		snapfile, snap.ProgramID, snap.OptionKey(), len(p.Routines),
		time.Since(start).Round(time.Microsecond))
	if summaries {
		printSummaries(w, a)
	}
	return nil
}

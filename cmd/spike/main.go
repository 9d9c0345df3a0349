// Command spike is the post-link-time optimizer: one binary whose
// subcommands cover the whole pipeline. gen generates a synthetic
// benchmark executable and dump inspects one; analyze analyzes and
// optionally optimizes it (-stats adds the PSG-vs-CFG, branch-node and
// SCC comparisons); check runs the correctness harness on it; snapshot
// persists or restores a converged analysis; serve runs the analysis
// daemon and top watches one; layout restructures an executable from
// its execution profile; bench regenerates the paper's evaluation.
//
// Run 'spike help' for the command list and 'spike <command> -h' for a
// command's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/prog"
	"repro/internal/serve"
	"repro/internal/sxe"
)

// command is one subcommand. run parses args on fs — a flag set named
// "spike <name>" whose usage text is built from args and help, writing
// diagnostics to its output — and writes its report to stdout.
type command struct {
	name, args, help string
	run              func(fs *flag.FlagSet, args []string, stdout io.Writer) error
}

// commands drives both dispatch and the usage text.
var commands = []command{
	{"analyze", "[flags] input", "analyze and optionally optimize an executable", analyzeMain},
	{"check", "[flags] input", "run the correctness harness on the input", checkMain},
	{"snapshot", "<save|load> [flags] input snap", "persist or restore a converged analysis", snapshotMain},
	{"serve", "[flags]", "run the analysis service daemon (HTTP/JSON)", serveMain},
	{"top", "[flags]", "live serving metrics of a running daemon", topMain},
	{"gen", "[flags]", "generate a synthetic benchmark executable", genMain},
	{"dump", "[flags] input.sxe", "inspect an SXE executable image", dumpMain},
	{"layout", "[flags] input", "profile-driven code layout with an i-cache report", layoutMain},
	{"bench", "[flags]", "regenerate the paper's tables and figures", benchMain},
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: spike <command> [flags] ...\n\nCommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-8s %-32s %s\n", c.name, c.args, c.help)
	}
	fmt.Fprint(w, "\nRun 'spike <command> -h' for a command's flags.\n")
}

func main() {
	if err := dispatch(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "spike:", err)
		os.Exit(1)
	}
}

// dispatch runs the command args[0] names on the rest of args.
// flag.ErrHelp means usage went to stderr and there is nothing more to
// report.
func dispatch(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return flag.ErrHelp
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage(stdout)
		return nil
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("spike "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		fs.Usage = func() {
			fmt.Fprintf(stderr, "usage: spike %s %s\n\n%s.\n\n", c.name, c.args, c.help)
			fs.PrintDefaults()
		}
		return c.run(fs, args[1:], stdout)
	}
	usage(stderr)
	return fmt.Errorf("unknown command %q", args[0])
}

// parse parses args on fs and requires exactly n positional arguments.
func parse(fs *flag.FlagSet, args []string, n int) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != n {
		fs.Usage()
		return fmt.Errorf("expected %d argument(s), got %d", n, fs.NArg())
	}
	return nil
}

func serveMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	return serve.RunCLI(fs.Name(), args, stdout, fs.Output())
}

// readProgram loads an SXE image, or assembly text when asm is set,
// and returns the program with the file's bytes.
func readProgram(input string, asm bool) (*prog.Program, []byte, error) {
	data, err := os.ReadFile(input)
	if err != nil {
		return nil, nil, err
	}
	var p *prog.Program
	if asm {
		p, err = prog.Assemble(string(data))
	} else {
		p, err = sxe.Decode(data)
	}
	if err != nil {
		return nil, nil, err
	}
	return p, data, nil
}

// writeImage writes p to path as an SXE image.
func writeImage(path string, p *prog.Program) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sxe.Write(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles starts a CPU profile into cpuFile and arranges a heap
// profile into memFile (either may be empty); the returned stop must
// run when the command's work is done.
func startProfiles(cpuFile, memFile string, stderr io.Writer) (stop func(), err error) {
	stop = func() {}
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
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
	if memFile != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintln(stderr, "spike:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "spike:", err)
			}
		}
	}
	return stop, nil
}

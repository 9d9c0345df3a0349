package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// writeTestSrc writes assembly src to a temporary file and returns its
// path.
func writeTestSrc(t *testing.T, src string) string {
	t.Helper()
	in := filepath.Join(t.TempDir(), "p.s")
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return in
}

// spike runs one command line and returns its stdout, failing the test
// on an error.
func spike(t *testing.T, args ...string) string {
	t.Helper()
	var out, diag bytes.Buffer
	if err := dispatch(args, &out, &diag); err != nil {
		t.Fatalf("spike %s: %v\n%s", strings.Join(args, " "), err, diag.String())
	}
	return out.String()
}

// readImage decodes and validates the SXE image at path.
func readImage(t *testing.T, path string) *prog.Program {
	t.Helper()
	p, _, err := readProgram(path, false)
	if err != nil {
		t.Fatalf("%s does not decode: %v", path, err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s does not validate: %v", path, err)
	}
	return p
}

// TestCommandTable checks that every command in the table dispatches
// to its own flag set, that usage lists each of them, and that anything
// else — the retired bare `spike [flags] input` form included — fails.
func TestCommandTable(t *testing.T) {
	for _, c := range commands {
		var diag bytes.Buffer
		if err := dispatch([]string{c.name, "-h"}, io.Discard, &diag); err == nil {
			t.Errorf("spike %s -h: no error", c.name)
		}
		if want := "usage: spike " + c.name + " "; !strings.Contains(diag.String(), want) {
			t.Errorf("spike %s -h: usage lacks %q:\n%s", c.name, want, diag.String())
		}
	}
	help := spike(t, "help")
	for _, c := range commands {
		if !strings.Contains(help, "  "+c.name+" ") {
			t.Errorf("usage does not list %s:\n%s", c.name, help)
		}
	}
	if err := dispatch(nil, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("no command: err = %v, want flag.ErrHelp", err)
	}
	for _, args := range [][]string{{"frobnicate"}, {"-stats", "p.sxe"}} {
		err := dispatch(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Errorf("spike %s: err = %v, want unknown command", strings.Join(args, " "), err)
		}
	}
}

// TestGenCommand covers `spike gen`: the profile list, and both kinds
// of generated image decoding and validating.
func TestGenCommand(t *testing.T) {
	list := spike(t, "gen", "-list")
	for _, p := range progen.Profiles {
		if !strings.Contains(list, p.Name) {
			t.Errorf("-list lacks %s:\n%s", p.Name, list)
		}
	}
	dir := t.TempDir()
	small := filepath.Join(dir, "small.sxe")
	out := spike(t, "gen", "-routines", "12", "-seed", "3", "-o", small)
	if p := readImage(t, small); len(p.Routines) != 12 {
		t.Errorf("-routines 12 generated %d routines", len(p.Routines))
	}
	if !strings.HasPrefix(out, "generated test: 12 routines") || !strings.Contains(out, "wrote "+small) {
		t.Errorf("gen -routines output:\n%s", out)
	}
	gcc := filepath.Join(dir, "gcc.sxe")
	spike(t, "gen", "-profile", "gcc", "-scale", "0.02", "-o", gcc)
	prof, _ := progen.ProfileByName("gcc")
	want := progen.Generate(prof.Scale(0.02), progen.DefaultOptions(1))
	if p := readImage(t, gcc); p.NumInstructions() != want.NumInstructions() {
		t.Errorf("gcc@0.02: %d instructions, want %d", p.NumInstructions(), want.NumInstructions())
	}
}

// TestDumpCommand covers `spike dump`: the routine table and -r on a
// generated image.
func TestDumpCommand(t *testing.T) {
	img := filepath.Join(t.TempDir(), "small.sxe")
	spike(t, "gen", "-routines", "8", "-o", img)
	p := readImage(t, img)

	table := spike(t, "dump", img)
	for ri, r := range p.Routines {
		row := fmt.Sprintf("%-5d %-16s %6d", ri, r.Name, len(r.Code))
		if !strings.Contains(table, row) {
			t.Errorf("routine table lacks %q:\n%s", row, table)
		}
	}
	if total := fmt.Sprintf("total: %d routines, %d instructions", len(p.Routines), p.NumInstructions()); !strings.Contains(table, total) {
		t.Errorf("routine table lacks %q:\n%s", total, table)
	}

	r := p.Routines[1]
	one := spike(t, "dump", "-r", r.Name, img)
	if head := fmt.Sprintf("routine %s (#1): %d instructions", r.Name, len(r.Code)); !strings.Contains(one, head) {
		t.Errorf("-r %s lacks %q:\n%s", r.Name, head, one)
	}
	if last := fmt.Sprintf("%4d: %s", len(r.Code)-1, r.Code[len(r.Code)-1].String()); !strings.Contains(one, last) {
		t.Errorf("-r %s lacks its last instruction %q:\n%s", r.Name, last, one)
	}
	if err := dispatch([]string{"dump", "-r", "no-such-routine", img}, io.Discard, io.Discard); err == nil {
		t.Error("-r of a missing routine accepted")
	}
}

// TestLayoutCommand runs `spike layout` on a small runnable program:
// the restructured program must verify, and its -o image must decode
// and print what the input prints.
func TestLayoutCommand(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "small.sxe")
	out := filepath.Join(dir, "laid.sxe")
	spike(t, "gen", "-routines", "12", "-seed", "3", "-o", in)
	rep := spike(t, "layout", "-hot", "3", "-o", out, in)
	for _, want := range []string{"profiled ", "hottest routines:", "i-cache (256 lines", "verified: observable output identical", "wrote " + out} {
		if !strings.Contains(rep, want) {
			t.Errorf("layout output lacks %q:\n%s", want, rep)
		}
	}
	before, err := emu.Run(readImage(t, in), 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	after, err := emu.Run(readImage(t, out), 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !emu.SameOutput(before, after) {
		t.Error("the -o image's output differs from the input's")
	}
}

// TestBenchCommand runs `spike bench` at a small scale: Table 2 over
// every profile, and the -json sweep as one document.
func TestBenchCommand(t *testing.T) {
	table := spike(t, "bench", "-tables", "2", "-scale", "0.02", "-q")
	if !strings.HasPrefix(table, "Table 2:") {
		t.Errorf("-tables 2 output:\n%s", table)
	}
	for _, p := range progen.Profiles {
		if !strings.Contains(table, " "+p.Name+" ") {
			t.Errorf("Table 2 lacks %s:\n%s", p.Name, table)
		}
	}
	var doc bench.BenchDoc
	if err := json.Unmarshal([]byte(spike(t, "bench", "-json", "-scale", "0.02", "-q")), &doc); err != nil {
		t.Fatalf("-json output is not one JSON document: %v", err)
	}
	if len(doc.Results) != len(progen.Profiles) {
		t.Errorf("-json holds %d results, want %d", len(doc.Results), len(progen.Profiles))
	}
}

// TestAnalyzeStatsComparisons checks that `analyze -open-world -stats`
// prints every count the PSG statistics report needs — PSG against
// CFG (Table 5), branch nodes (Table 4), the SCC condensation — each
// recomputed here from its own analysis, and that -dot renders a
// routine's PSG.
func TestAnalyzeStatsComparisons(t *testing.T) {
	prof, _ := progen.ProfileByName("gcc")
	p := progen.Generate(prof.Scale(0.02), progen.DefaultOptions(1))
	img := filepath.Join(t.TempDir(), "gcc.sxe")
	if err := writeImage(img, p); err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p, core.WithOpenWorld())
	if err != nil {
		t.Fatal(err)
	}
	nb, err := core.Analyze(p, core.WithOpenWorld(), core.WithBranchNodes(false))
	if err != nil {
		t.Fatal(err)
	}
	sg, _ := baseline.Analyze(p, baseline.WithOpenWorld())
	s := &a.Stats
	cg := a.CallGraph()
	recursive, largest := 0, 0
	for c := 0; c < cg.NumComponents(); c++ {
		if cg.Recursive(c) {
			recursive++
		}
		largest = max(largest, len(cg.Members(c)))
	}

	out := spike(t, "analyze", "-open-world", "-stats", img)
	for _, want := range []string{
		fmt.Sprintf("routines:      %d\n", s.Routines),
		fmt.Sprintf("instructions:  %d\n", s.Instructions),
		fmt.Sprintf("basic blocks:  %d\n", s.BasicBlocks),
		fmt.Sprintf("psg nodes:     %d\n", s.PSGNodes),
		fmt.Sprintf("psg edges:     %d\n", s.PSGEdges),
		fmt.Sprintf("%.2f nodes/block, %.2f edges/arc over %d whole-program arcs",
			float64(s.PSGNodes)/float64(s.BasicBlocks), float64(s.PSGEdges)/float64(sg.NumArcs()), sg.NumArcs()),
		fmt.Sprintf("%d psg edges with, %d without: %.1f%% edge reduction, %.1f%% node increase",
			s.PSGEdges, nb.Stats.PSGEdges,
			(1-float64(s.PSGEdges)/float64(nb.Stats.PSGEdges))*100,
			(float64(s.PSGNodes)/float64(nb.Stats.PSGNodes)-1)*100),
		fmt.Sprintf("%d components, phase1 %d waves/%d iterations, phase2 %d waves/%d iterations",
			cg.NumComponents(), cg.NumWaves(), s.Phase1Iterations, cg.NumWaves(), s.Phase2Iterations),
		fmt.Sprintf("scc:           %d recursive, largest %d routines", recursive, largest),
		"no indirect pin", // open world never pins
		fmt.Sprintf("graph memory:  %.2f MB", float64(s.GraphBytes)/(1<<20)),
		"analysis time: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output lacks %q:\n%s", want, out)
		}
	}

	dot := spike(t, "analyze", "-open-world", "-dot", p.Routines[p.Entry].Name, img)
	var want bytes.Buffer
	a.PSG.WriteDot(&want, p.Entry)
	if dot != want.String() {
		t.Errorf("-dot output differs from the routine's PSG:\n%s", dot)
	}
	if err := dispatch([]string{"analyze", "-dot", "no-such-routine", img}, io.Discard, io.Discard); err == nil {
		t.Error("-dot of a missing routine accepted")
	}
}

// nopSrc is testSrc with nops the optimizer must fold away before its
// first pass, one of them between a branch and its target.
const nopSrc = `
.start main
.routine main
  nop
  lda a0, 5(zero)
  nop
  lda a1, 9(zero)    ; dead: double ignores a1
  jsr double
  print v0
  halt
.routine double
  beq a0, done
  nop
  add v0, a0, a0
done:
  nop
  ret
`

// TestAnalyzeOptAnalyzesOnce checks that `analyze -opt` hands its own
// analysis to the optimizer: the trace holds one top-level analyze,
// the -o image is exactly what opt.Optimize produces — with and
// without nops in the input — and the summaries printed are those of
// the input, as without -opt.
func TestAnalyzeOptAnalyzesOnce(t *testing.T) {
	for _, tc := range []struct{ name, path string }{
		{"fig2", filepath.Join("..", "..", "examples", "fig2.s")},
		{"nops", writeTestSrc(t, nopSrc)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			img, tracePath := filepath.Join(dir, "out.sxe"), filepath.Join(dir, "trace.json")
			out := spike(t, "analyze", "-asm", "-opt", "-summaries", "-trace", tracePath, "-o", img, tc.path)

			p, _, err := readProgram(tc.path, true)
			if err != nil {
				t.Fatal(err)
			}
			optimized, _, err := opt.Optimize(p, opt.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want, err := sxe.Encode(optimized)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(img)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("-o image differs from sxe.Encode of opt.Optimize's output")
			}

			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string         `json:"name"`
					Ph   string         `json:"ph"`
					Args map[string]any `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			var top []string
			analyses := 0
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" && ev.Args["parent"] == float64(-1) {
					top = append(top, ev.Name)
					if ev.Name == "analyze" {
						analyses++
					}
				}
			}
			if len(top) == 0 || top[0] != "analyze" || analyses != 1 {
				t.Errorf("top-level spans %v, want one analyze and then re-analyses", top)
			}

			plain := spike(t, "analyze", "-asm", "-summaries", tc.path)
			if !strings.HasPrefix(out, plain) {
				t.Errorf("-opt changed the printed summaries:\n got:\n%s\nwant prefix:\n%s", out, plain)
			}
		})
	}
}

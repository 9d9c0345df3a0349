package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/sxe"
)

var update = flag.Bool("update", false, "rewrite golden files")

const testSrc = `
.start main
.routine main
  lda a0, 5(zero)
  lda a1, 9(zero)    ; dead: double ignores a1
  jsr double
  print v0
  halt
.routine double
  add v0, a0, a0
  ret
`

func TestRunAsmOptimizeVerifyEncode(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	out := filepath.Join(dir, "p.sxe")
	if err := os.WriteFile(in, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(io.Discard, in, spikeOptions{
		asmIn:     true,
		outFile:   out,
		opt:       true,
		summaries: true,
		stats:     true,
		verify:    true,
		maxSteps:  1_000_000,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sxe.Decode(data)
	if err != nil {
		t.Fatalf("output does not decode: %v", err)
	}
	// The dead a1 setup must be gone.
	if p.NumInstructions() >= 8 {
		t.Errorf("optimization did not shrink the program: %d instructions",
			p.NumInstructions())
	}
}

func TestRunSXEInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	mid := filepath.Join(dir, "p.sxe")
	if err := os.WriteFile(in, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, in, spikeOptions{asmIn: true, outFile: mid}); err != nil {
		t.Fatal(err)
	}
	// Feed the SXE back in with the open-world, no-branch-node,
	// serial-analysis config.
	if err := run(io.Discard, mid, spikeOptions{
		asmOut:    true,
		stats:     true,
		openWorld: true,
		noBranch:  true,
		parallel:  1,
	}); err != nil {
		t.Fatalf("sxe round trip run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "/nonexistent/file", spikeOptions{}); err == nil {
		t.Error("missing input must fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.s")
	os.WriteFile(bad, []byte("garbage"), 0o644)
	if err := run(io.Discard, bad, spikeOptions{asmIn: true}); err == nil {
		t.Error("bad assembly must fail")
	}
	if err := run(io.Discard, bad, spikeOptions{}); err == nil {
		t.Error("bad SXE must fail")
	}
}

// TestRunJSONGolden pins the -format=json document (api.AnalysisDoc).
// Timing fields are nondeterministic, so every key ending in "_ns" is
// zeroed before the comparison, as are the values of metrics counters
// flagged unstable (pool hit rates depend on GC timing); everything
// else — summaries, schedule counts, sizes, solver telemetry — is
// byte-exact (the analysis is deterministic at every parallelism).
func TestRunJSONGolden(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	if err := os.WriteFile(in, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, in, spikeOptions{asmIn: true, format: "json", parallel: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if v, _ := doc["schema_version"].(string); v != api.SchemaVersion {
		t.Errorf("document schema_version = %q, want %q", v, api.SchemaVersion)
	}
	stats, ok := doc["stats"].(map[string]any)
	if !ok {
		t.Fatal("document has no stats object")
	}
	for k := range stats {
		if strings.HasSuffix(k, "_ns") {
			stats[k] = 0
		}
	}
	metrics, ok := doc["metrics"].(map[string]any)
	if !ok {
		t.Fatal("document has no metrics object")
	}
	counters, ok := metrics["counters"].([]any)
	if !ok || len(counters) == 0 {
		t.Fatal("metrics has no counters")
	}
	for _, c := range counters {
		cm := c.(map[string]any)
		if unstable, _ := cm["unstable"].(bool); unstable {
			cm["value"] = 0
		}
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "summary.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-format=json document differs from %s:\n got:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestRunJSONOptSingleDocument pins the `-format=json -opt` regression:
// the whole stdout must parse as ONE JSON document with the optimizer
// report (and the -verify result) under its "opt" key — never as a
// JSON document followed by trailing plain text.
func TestRunJSONOptSingleDocument(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	if err := os.WriteFile(in, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, in, spikeOptions{
		asmIn:    true,
		format:   "json",
		opt:      true,
		verify:   true,
		parallel: 1,
		maxSteps: 1_000_000,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// json.Unmarshal rejects trailing non-whitespace, so decoding the
	// full stdout is exactly the regression check.
	var doc api.AnalysisDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-format=json -opt stdout is not a single JSON document: %v\n%s",
			err, buf.String())
	}
	if doc.Opt == nil {
		t.Fatal("document has no opt report")
	}
	if doc.Opt.InstructionsBefore <= doc.Opt.InstructionsAfter {
		t.Errorf("opt report shows no shrink: %d -> %d",
			doc.Opt.InstructionsBefore, doc.Opt.InstructionsAfter)
	}
	if doc.Opt.Verify == nil {
		t.Fatal("opt report has no verify result despite -verify")
	}
	if !doc.Opt.Verify.OutputIdentical {
		t.Error("verify reports output not identical")
	}
	if doc.Opt.Verify.Improvement == "" || strings.Contains(doc.Opt.Verify.Improvement, "NaN") {
		t.Errorf("verify improvement = %q", doc.Opt.Verify.Improvement)
	}
}

// TestRunVerifyTrivialProgram pins the -verify zero-guard behaviour on
// a trivial program: the improvement line must be a well-formed
// percentage (or "n/a"), never NaN%.
func TestRunVerifyTrivialProgram(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	src := ".start main\n.routine main\n  halt\n"
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, in, spikeOptions{asmIn: true, opt: true, verify: true, maxSteps: 1000})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("-verify printed NaN:\n%s", out)
	}
	if !strings.Contains(out, "verified: output identical") {
		t.Errorf("-verify line missing:\n%s", out)
	}
}

// TestRunTraceGolden pins the -trace capture at parallelism 1, where
// the span schedule is fully deterministic. Timestamps and durations
// vary run to run, so each event is projected to a stable line —
// phase, thread id, name and args — before comparing against the
// golden file.
func TestRunTraceGolden(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	traceOut := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(in, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(io.Discard, in, spikeOptions{asmIn: true, traceFile: traceOut, parallel: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, ev := range doc.TraceEvents {
		line := ev.Ph + " " + strconv.FormatInt(ev.Tid, 10) + " " + ev.Name
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += " " + k + "=" + fmt.Sprint(ev.Args[k])
		}
		lines = append(lines, line)
	}
	got := []byte(strings.Join(lines, "\n") + "\n")
	golden := filepath.Join("testdata", "trace.txt")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-trace capture differs from %s:\n got:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestRunMetricsText checks the -metrics table: the phase counters and
// the per-component iteration histograms must appear in text output.
func TestRunMetricsText(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	if err := os.WriteFile(in, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, in, spikeOptions{asmIn: true, metrics: true, opt: true}); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"metrics:",
		"phase1/iterations",
		"phase2/worklist_pushes",
		"phase1/component_iterations",
		"psg/nodes",
		"liveness/runs", // proves the optimizer's solves share the registry
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output lacks %q:\n%s", want, out)
		}
	}
}

// TestSubcommandArgErrors pins the subcommand flag parsing: missing
// inputs and unknown flags fail instead of silently doing nothing.
func TestSubcommandArgErrors(t *testing.T) {
	for _, args := range [][]string{
		{"analyze"},
		{"analyze", "-no-such-flag", "x"},
		{"check"},
		{"dump"},
		{"layout", "a", "b"},
		{"gen"},
		{"gen", "-profile", "no-such-profile"},
		{"bench"},
		{"top", "stray"},
	} {
		if err := dispatch(args, io.Discard, io.Discard); err == nil {
			t.Errorf("spike %s: accepted", strings.Join(args, " "))
		}
	}
}

// TestCheckSubcommand runs `spike check` end to end on the test
// program: the harness must come back clean.
func TestCheckSubcommand(t *testing.T) {
	in := writeTestSrc(t, testSrc)
	var out bytes.Buffer
	if err := dispatch([]string{"check", "-asm", "-max-steps", "1000000", in}, &out, io.Discard); err != nil {
		t.Fatalf("spike check: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "oracles clean") {
		t.Errorf("spike check output:\n%s", out.String())
	}
}

func TestRunBadFormat(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	if err := os.WriteFile(in, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, in, spikeOptions{asmIn: true, format: "yaml"}); err == nil {
		t.Error("unknown -format must fail")
	}
}

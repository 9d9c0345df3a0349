package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/opt"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// tinyConfig shrinks every input so a whole run takes seconds, while
// keeping enough samples for each reported percentile.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	c := defaultConfig()
	c.workload, c.seed, c.seconds, c.trace = workload, 1, 2, trace
	c.outDir = t.TempDir()
	c.setups = 2
	c.table2Scale, c.optScale = 0.05, 0.05
	c.readProfiles, c.readScale, c.readRate, c.minQueries = []string{"li", "compress"}, 0.1, 1000, 1100
	c.editProfile, c.editScale = "li", 0.1
	return c
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestTinyRun runs every phase at tiny scale, untraced and traced, and
// requires zero failed operations and every metric measured.
func TestTinyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every phase")
	}
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"large", false}, {"small", true}} {
		t.Run(tc.workload, func(t *testing.T) {
			r := newRun(tinyConfig(t, tc.workload, tc.trace), testLog{t})
			if err := r.execute(); err != nil {
				t.Fatal(err)
			}
			res := r.result()
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%d failed operations: %v", res.Failed, r.failures)
			}
			want := endToEnd
			if tc.trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("printed %d metrics, want %d", len(res.Metrics), len(want))
			}
			// A second run at the same seed compares its exact counts
			// with the record the first one left.
			r2 := newRun(r.cfg, testLog{t})
			if err := r2.execute(); err != nil {
				t.Fatal(err)
			}
			if r2.failed != 0 || r2.record["exact_compared_with"] == nil {
				t.Fatalf("second run: %d failures %v, compared with %v", r2.failed, r2.failures, r2.record["exact_compared_with"])
			}
		})
	}
}

// TestTracedEditWithReloads runs a traced serve-edit phase on daemons
// whose program cache is smaller than the editor's chains, so patches
// meet evicted versions and are reloaded and repeated; every patch must
// still be answered, checked and attributed. The eight chains share
// six slots: a chain's head is evicted before the client edits it
// again, while a fresh version outlives its two reads.
func TestTracedEditWithReloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-edit phase")
	}
	c := tinyConfig(t, "small", true)
	c.editPrograms, c.maxPrograms = 8, 6
	r := newRun(c, testLog{t})
	if err := r.serveEdit(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed operations: %v", r.failed, r.failures)
	}
	if n := r.record["serve-edit"].(map[string]any)["reloads"].(int); n == 0 {
		t.Fatal("no patch met an evicted version in the traced window")
	}
}

func optPair(t *testing.T) (in, out []byte) {
	t.Helper()
	prof, _ := progen.ProfileByName("li")
	raw := progen.Generate(prof.Scale(0.1), progen.PaperOptOptions(3))
	pre, _, err := opt.Optimize(raw, opt.CompilerOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := opt.Optimize(pre, opt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if in, err = sxe.Encode(pre); err != nil {
		t.Fatal(err)
	}
	if out, err = sxe.Encode(res); err != nil {
		t.Fatal(err)
	}
	return in, out
}

func TestTamperedOptimizedProgramIsCaught(t *testing.T) {
	in, out := optPair(t)
	if _, err := verifyOptimized(in, out, 1e9); err != nil {
		t.Fatalf("untampered program rejected: %v", err)
	}
	p, err := sxe.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	prints := 0
	for _, rt := range p.Routines {
		for k := range rt.Code {
			if rt.Code[k].Op == isa.OpPrint {
				rt.Code[k] = isa.Nop()
				prints++
			}
		}
	}
	if prints == 0 {
		t.Fatal("test program prints nothing")
	}
	tampered, err := sxe.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyOptimized(in, tampered, 1e9); err == nil {
		t.Fatal("tampered optimized program passed the emulator check")
	}
}

func TestCorruptedSummaryIsCaught(t *testing.T) {
	prof, _ := progen.ProfileByName("li")
	p := progen.Generate(prof.Scale(0.1), progen.DefaultOptions(5))
	a, err := core.Analyze(p, core.WithConfig(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	in := &t2input{name: "li", digest: summaryDigest(a), counts: countsOf(a)}

	t.Run("table2", func(t *testing.T) {
		r := newRun(defaultConfig(), testLog{t})
		r.checkAnalysis("restore", in, a, countsOf(a))
		if r.failed != 0 {
			t.Fatalf("intact analysis rejected: %v", r.failures)
		}
		b, _ := core.Analyze(p, core.WithConfig(core.DefaultConfig()))
		b.Summaries[3].LiveAtEntry[0] ^= 1 << 5
		r.checkAnalysis("restore", in, b, countsOf(b))
		if r.failed != 1 {
			t.Fatalf("corrupted summary: %d failures, want 1", r.failed)
		}
	})

	t.Run("serve-read", func(t *testing.T) {
		sum := api.SummaryOf(a, 3)
		expect, _ := json.Marshal(sum)
		q := readReq{kind: "summary", expect: expect}
		body, _ := json.Marshal(api.SummaryResponse{SchemaVersion: api.SchemaVersion, Program: "p", Summary: sum})
		if err := checkReadAnswer(q, body, "p"); err != nil {
			t.Fatalf("intact answer rejected: %v", err)
		}
		sum.Entries[0].LiveAtEntry += "r9"
		body, _ = json.Marshal(api.SummaryResponse{SchemaVersion: api.SchemaVersion, Program: "p", Summary: sum})
		if err := checkReadAnswer(q, body, "p"); err == nil {
			t.Fatal("corrupted answer accepted")
		}
	})

	t.Run("serve-edit", func(t *testing.T) {
		c := &editChain{rng: newRand(1, "test", 0), seen: map[uint64]bool{}}
		c.first, c.cur = p, p
		c.fp = fingerprint(p)
		img, _ := sxe.Encode(p)
		c.firstID = api.ProgramID(img)
		v, ri, body, err := c.nextEdit()
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := core.Analyze(v, core.WithConfig(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		inc, err := core.Reanalyze(a, v, core.WithConfig(core.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		vimg, _ := sxe.Encode(v)
		sum, _ := json.Marshal(api.SummaryOf(scratch, ri))
		pt, _ := api.LivenessPointOf(scratch, ri, 0)
		live, _ := json.Marshal(pt)
		s := &patchSample{ri: ri, body: body, id: api.ProgramID(vimg), inc: api.IncrementalInfoOf(inc.Incremental),
			summary: sum, raw: sum, liveness: live}
		c.patches = []*patchSample{s}
		st := &editState{chains: []*editChain{c}}

		r := newRun(defaultConfig(), testLog{t})
		r.editCheck(st, false)
		if r.failed != 0 {
			t.Fatalf("intact patch rejected: %v", r.failures)
		}
		var corrupt api.RoutineSummary
		if err := json.Unmarshal(sum, &corrupt); err != nil {
			t.Fatal(err)
		}
		corrupt.Entries[0].CallKilled += "r9"
		s.summary, _ = json.Marshal(corrupt)
		r.editCheck(st, false)
		if r.failed != 1 {
			t.Fatalf("corrupted patch response: %d failures, want 1", r.failed)
		}
	})
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric names, units
// and directions in step with the tables the benchmark prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, names, units, better []string) {
		for _, d := range defs {
			if d.Phase == "" || d.Moves == "" {
				t.Errorf("%s %s: no phase or no description of what it moves", kind, d.Name)
			}
		}
		if len(defs) != len(names) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			dir := "lower"
			if d.Higher {
				dir = "higher"
			}
			if names[i] != d.Name || units[i] != d.Unit || better[i] != dir {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, the benchmark %s %s %s", kind, i, names[i], units[i], better[i], d.Name, d.Unit, dir)
			}
		}
	}
	var n, u, bt []string
	for _, m := range doc.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("end_to_end", endToEnd, n, u, bt)
	n, u, bt = nil, nil, nil
	for _, m := range doc.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("per_layer", perLayer, n, u, bt)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark knows %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
	"repro/internal/progen"
)

// TestMetricsDeterminism is the acceptance bar for the telemetry: the
// stable part of the metrics snapshot — iterations, worklist traffic,
// relabels, graph-shape gauges — must be byte-identical at parallelism
// 1, 2 and 8. The solver counters are accumulated per component and
// the per-component counts depend only on the schedule (DESIGN.md §6),
// so atomically summing them commutes; only the pool counters vary,
// and those are registered unstable and filtered by Stable().
func TestMetricsDeterminism(t *testing.T) {
	p := perfProgram()
	for _, world := range []struct {
		name string
		opt  Option
	}{
		{"closed", WithClosedWorld()},
		{"open", WithOpenWorld()},
	} {
		t.Run(world.name, func(t *testing.T) {
			var base []byte
			for _, workers := range []int{1, 2, 8} {
				m := obs.NewMetrics()
				if _, err := Analyze(p, world.opt, WithParallelism(workers), WithMetrics(m)); err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(m.Snapshot().Stable(), "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = got
					continue
				}
				if !bytes.Equal(base, got) {
					t.Errorf("parallelism %d stable snapshot differs from parallelism 1:\n--- p=1\n%s\n--- p=%d\n%s",
						workers, base, workers, got)
				}
			}
		})
	}
}

// TestAnalyzeTracing checks the span inventory: one span per pipeline
// stage on the main thread, one per wave, and one component-solve span
// per (component, phase) pair across the worker threads.
func TestAnalyzeTracing(t *testing.T) {
	p := perfProgram()
	tr := obs.NewTracer()
	a, err := Analyze(p, WithParallelism(2), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			count[ev.Name]++
		}
	}
	for _, stage := range []string{
		"analyze", "cfg build", "init", "psg build", "callgraph build",
		"callgraph edges", "callgraph condense", "callgraph schedule",
		"phase1", "phase2", "summaries", "psg structure",
	} {
		if count[stage] != 1 {
			t.Errorf("span %q appears %d times, want 1", stage, count[stage])
		}
	}
	st := a.Stats
	if count["phase1 wave"] != st.Phase1Waves {
		t.Errorf("phase1 wave spans = %d, want %d", count["phase1 wave"], st.Phase1Waves)
	}
	if count["phase2 wave"] != st.Phase2Waves {
		t.Errorf("phase2 wave spans = %d, want %d", count["phase2 wave"], st.Phase2Waves)
	}
	nc := a.CallGraph().NumComponents()
	if count["phase1 component"] != nc {
		t.Errorf("phase1 component spans = %d, want %d", count["phase1 component"], nc)
	}
	if count["phase2 component"] != nc {
		t.Errorf("phase2 component spans = %d, want %d", count["phase2 component"], nc)
	}
	nr := len(p.Routines)
	for _, per := range []string{"cfg", "defubd", "label", "saved-restored-scan", "saved-restored"} {
		if count[per] != nr {
			t.Errorf("%s spans = %d, want %d (one per routine)", per, count[per], nr)
		}
	}
}

// TestDisabledObsAllocParity proves "disabled tracing adds zero
// allocations": Analyze with the default nil observer and Analyze with
// explicitly-nil tracer/metrics allocate identically (the instrumented
// sites reduce to nil checks), and both fit the PR 3 budget enforced
// by TestAnalyzeAllocationBudget.
func TestDisabledObsAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p := perfProgram()
	// A GC cycle landing inside a measurement window charges the run an
	// extra allocation (worker bootstrap), so whichever closure the cycle
	// lands in reads one high. Park the collector for the comparison.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	base := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(p, WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
	})
	explicit := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(p, WithParallelism(1), WithTracer(nil), WithMetrics(nil)); err != nil {
			t.Fatal(err)
		}
	})
	if explicit != base {
		t.Errorf("explicit nil observer allocates %.0f/run vs %.0f/run default", explicit, base)
	}
	// The serving daemon's request-span plumbing must be free when no
	// request trace rides the config (the flight recorder disabled).
	reqspans := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(p, WithParallelism(1), WithRequestSpans(nil, obs.NoSpan)); err != nil {
			t.Fatal(err)
		}
	})
	if reqspans != base {
		t.Errorf("nil request-span observer allocates %.0f/run vs %.0f/run default", reqspans, base)
	}
	if base > analyzeAllocBudget {
		t.Errorf("disabled-tracing Analyze allocates %.0f/run, budget %d", base, analyzeAllocBudget)
	}
}

// TestAnalyzeRequestSpans checks the request-scoped stage inventory: an
// analysis run under WithRequestSpans records one child span per
// pipeline stage, all parented to the span the caller supplied.
func TestAnalyzeRequestSpans(t *testing.T) {
	p := perfProgram()
	rt := obs.NewRequestTrace(1, "/v1/summary")
	an := rt.Begin(rt.Root(), "analyze")
	if _, err := Analyze(p, WithParallelism(2), WithRequestSpans(rt, an)); err != nil {
		t.Fatal(err)
	}
	rt.End(an)
	rt.Finish(200)

	spans := rt.Spans()
	count := map[string]int{}
	for i, sp := range spans {
		count[sp.Name]++
		if i >= 2 && sp.Parent != an {
			t.Errorf("stage span %q parented to %d, want %d", sp.Name, sp.Parent, an)
		}
		if sp.Dur < 0 {
			t.Errorf("span %q left open", sp.Name)
		}
	}
	for _, stage := range []string{
		"cfg build", "init", "psg build", "callgraph build",
		"phase1", "phase2", "summaries",
	} {
		if count[stage] != 1 {
			t.Errorf("request span %q appears %d times, want 1", stage, count[stage])
		}
	}
}

// TestReanalyzeSpanArgs traces one re-analysis and requires its
// "reanalyze" span to carry all four args: obs.Span keeps at most four,
// and perfbench's traced run reads routines and dirty_routines.
func TestReanalyzeSpanArgs(t *testing.T) {
	p := perfProgram()
	prev, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	mutant, _ := progen.MutateKind(p, 3, progen.MutBodyEdit)
	tr := obs.NewTracer()
	if _, err := Reanalyze(prev, mutant, WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name != "reanalyze" {
			continue
		}
		found = true
		for _, k := range []string{"routines", "dirty_routines", "resolved_components", "reused_components"} {
			if _, ok := ev.Args[k]; !ok {
				t.Errorf("reanalyze span lacks arg %q (args %v)", k, ev.Args)
			}
		}
		if ev.Args["dirty_routines"] != 1.0 {
			t.Errorf("dirty_routines = %v, want 1", ev.Args["dirty_routines"])
		}
	}
	if !found {
		t.Fatal("no reanalyze span in the trace")
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
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

// TestComponentIterationsHistograms runs an analyze, a copy-mode
// re-analysis and an in-place one into one registry, once per edit
// kind. Every component solve feeds its phase's component-iterations
// histogram, so the histogram's sum is the phase's iteration counter and
// its count the number of solves.
func TestComponentIterationsHistograms(t *testing.T) {
	p := perfProgram()
	for _, kind := range []progen.Mutation{progen.MutBodyEdit, progen.MutAddRoutine} {
		m := obs.NewMetrics()
		a, err := Analyze(p, WithMetrics(m))
		if err != nil {
			t.Fatal(err)
		}
		nc := a.CallGraph().NumComponents()
		solves := [2]int{nc, nc}
		mutant, _ := progen.MutateKind(p, 3, kind)
		b, err := Reanalyze(a, mutant, WithMetrics(m))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ReanalyzeInPlace(b, p, WithMetrics(m))
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range []*IncrementalStats{b.Incremental, c.Incremental} {
			solves[0] += inc.Phase1Components
			solves[1] += inc.Phase2Components
		}
		snap := m.Snapshot()
		for i, phase := range []string{"phase1", "phase2"} {
			var iters uint64
			for _, cv := range snap.Counters {
				if cv.Name == phase+"/iterations" {
					iters = cv.Value
				}
			}
			var h obs.HistogramValue
			for _, hv := range snap.Histograms {
				if hv.Name == phase+"/component_iterations" {
					h = hv
				}
			}
			if h.Sum != iters {
				t.Errorf("edit %v: %s/component_iterations sums to %d, %s/iterations is %d", kind, phase, h.Sum, phase, iters)
			}
			if h.Count != uint64(solves[i]) {
				t.Errorf("edit %v: %s/component_iterations counts %d solves, want %d", kind, phase, h.Count, solves[i])
			}
		}
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
	for _, per := range []string{"cfg", "defubd", "label", "saved-restored"} {
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
	if base > analyzeAllocBudget {
		t.Errorf("disabled-tracing Analyze allocates %.0f/run, budget %d", base, analyzeAllocBudget)
	}
}

// pipelineShape projects the spans of track tid, from index from on,
// onto name, parent and args; a parent is given as its position in the
// projection, -1 when it lies outside it.
func pipelineShape(spans []obs.SpanData, tid int64, from int) []string {
	pos := map[int32]int{}
	var out []string
	for i := from; i < len(spans); i++ {
		sp := &spans[i]
		if sp.Tid != tid {
			continue
		}
		parent, ok := pos[sp.Parent]
		if !ok {
			parent = -1
		}
		pos[int32(i)] = len(out)
		line := fmt.Sprintf("%s parent=%d", sp.Name, parent)
		args := append([]obs.Arg(nil), sp.Args()...)
		sort.Slice(args, func(i, j int) bool { return args[i].Key < args[j].Key })
		for _, a := range args {
			line += fmt.Sprintf(" %s=%d", a.Key, a.Val)
		}
		out = append(out, line)
	}
	return out
}

// TestRequestAndOfflineSpansAgree runs an analyze, one body-edit
// reanalyze and a rehydrate at parallelism 1 under an offline tree and
// under a request's: the pipeline spans, projected to name, parent and
// args, are identical, every stage nests under its analysis, the stages
// come in one order — a reanalyze's are an analyze's after its diff, and
// a rehydrate shares their first three — and the request tree holds no
// worker spans.
func TestRequestAndOfflineSpansAgree(t *testing.T) {
	p := perfProgram()
	mutant, _ := progen.MutateKind(p, 3, progen.MutBodyEdit)
	run := func(tr *obs.Tracer) {
		t.Helper()
		prev, err := Analyze(p, WithParallelism(1), WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Reanalyze(prev, mutant, WithParallelism(1), WithTracer(tr)); err != nil {
			t.Fatal(err)
		}
		if _, err := Rehydrate(p, prev.Export(), WithParallelism(1), WithTracer(tr)); err != nil {
			t.Fatal(err)
		}
	}
	off := obs.NewTracer()
	run(off)
	rt := obs.NewRequestTrace(9, "/v1/patch")
	run(rt.Tracer())
	rt.Finish(200)

	offSpans, reqSpans := off.Spans(), rt.Tracer().Spans()
	offline, request := pipelineShape(offSpans, 0, 0), pipelineShape(reqSpans, 9, 1)
	if !reflect.DeepEqual(offline, request) {
		t.Errorf("pipeline spans differ:\noffline:\n%s\nrequest:\n%s",
			strings.Join(offline, "\n"), strings.Join(request, "\n"))
	}
	if len(offline) == len(offSpans) {
		t.Error("the offline tree recorded no worker spans")
	}
	for _, sp := range reqSpans {
		if sp.Tid != 9 {
			t.Errorf("request tree holds span %q on track %d", sp.Name, sp.Tid)
		}
		if sp.Dur < 0 {
			t.Errorf("span %q left open", sp.Name)
		}
	}

	children := map[string][]string{}
	for _, sp := range reqSpans {
		if sp.Parent > 0 && reqSpans[sp.Parent].Parent == 0 {
			parent := reqSpans[sp.Parent].Name
			children[parent] = append(children[parent], sp.Name)
		}
	}
	stages := []string{"cfg build", "init", "callgraph build", "psg build", "phase1", "phase2", "summaries"}
	for name, want := range map[string][]string{
		"analyze":   stages,
		"reanalyze": append([]string{"diff"}, stages...),
		"rehydrate": stages[:3],
	} {
		if !reflect.DeepEqual(children[name], want) {
			t.Errorf("%s stages = %v, want %v", name, children[name], want)
		}
	}
}

// TestReanalyzeSpanArgs traces one re-analysis per edit kind. The
// "reanalyze" span carries all four args (a span keeps at most four,
// and perfbench's traced run reads routines and dirty_routines); its
// "psg build" span reports which engine path ran as shape_preserving;
// and the incremental phases record one wave span per re-solved wave
// and one component span per re-solved component.
func TestReanalyzeSpanArgs(t *testing.T) {
	p := perfProgram()
	prev, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  progen.Mutation
		shape int64
	}{
		{progen.MutBodyEdit, 1},
		{progen.MutAddRoutine, 0},
	} {
		mutant, _ := progen.MutateKind(p, 3, tc.kind)
		tr := obs.NewTracer()
		a, err := Reanalyze(prev, mutant, WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		inc := a.Incremental
		if got := inc.ShapePreserving; got != (tc.shape == 1) {
			t.Fatalf("edit %v: ShapePreserving = %v, want %v", tc.kind, got, tc.shape == 1)
		}
		args := map[string]map[string]int64{}
		count := map[string]int{}
		for _, sp := range tr.Spans() {
			count[sp.Name]++
			args[sp.Name] = map[string]int64{}
			for _, a := range sp.Args() {
				args[sp.Name][a.Key] = a.Val
			}
		}
		if count["reanalyze"] != 1 {
			t.Fatalf("edit %v: %d reanalyze spans, want 1", tc.kind, count["reanalyze"])
		}
		re := args["reanalyze"]
		for _, k := range []string{"routines", "dirty_routines", "resolved_components", "reused_components"} {
			if _, ok := re[k]; !ok {
				t.Errorf("edit %v: reanalyze span lacks arg %q (args %v)", tc.kind, k, re)
			}
		}
		if re["dirty_routines"] != int64(inc.DirtyRoutines) {
			t.Errorf("edit %v: dirty_routines = %d, want %d", tc.kind, re["dirty_routines"], inc.DirtyRoutines)
		}
		if got, ok := args["psg build"]["shape_preserving"]; !ok || got != tc.shape {
			t.Errorf("edit %v: psg build shape_preserving = %d (present %v), want %d", tc.kind, got, ok, tc.shape)
		}
		st := a.Stats
		for _, c := range []struct {
			name string
			want int
		}{
			{"phase1 wave", st.Phase1Waves}, {"phase2 wave", st.Phase2Waves},
			{"phase1 component", inc.Phase1Components}, {"phase2 component", inc.Phase2Components},
		} {
			if count[c.name] != c.want {
				t.Errorf("edit %v: %d %q spans, want %d", tc.kind, count[c.name], c.name, c.want)
			}
		}
		if inc.Phase1Components == 0 {
			t.Errorf("edit %v re-solved no component", tc.kind)
		}
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestTraceExport writes both kinds of tree — an offline capture with a
// worker track, and two request trees — into one document: tracks in
// tid order, spans in recording order within a track, a parent arg on
// every span, and no worker span under a request.
func TestTraceExport(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("analyze").Arg("routines", 3)
	inner := sp.Begin("phase1").Arg("waves", 2)
	inner.Worker(0, "solve").Arg("component", 7).Arg("iterations", 12).End()
	inner.End()
	sp.End()

	rt := NewRequestTrace(100, "/v1/liveness")
	an := rt.Tracer().Begin("analyze").Arg("routines", 2)
	an.Worker(0, "cfg").End()
	an.End()
	rt.Finish(200)
	rt2 := NewRequestTrace(101, "/v1/summary")
	rt2.Finish(200)

	var buf bytes.Buffer
	if err := WriteTraces(&buf, rt2.Tracer(), tr, rt.Tracer()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int64          `json:"tid"`
			Ts   *float64       `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	var got []string
	for _, ev := range doc.TraceEvents {
		line := fmt.Sprintf("%s %d %s", ev.Ph, ev.Tid, ev.Name)
		switch ev.Ph {
		case "M":
			line += " " + ev.Args["name"].(string)
		case "X":
			if ev.Ts == nil || *ev.Ts < 0 {
				t.Errorf("span %s has timestamp %v", ev.Name, ev.Ts)
			}
			line += fmt.Sprintf(" parent=%v", ev.Args["parent"])
			if v, ok := ev.Args["routines"]; ok {
				line += fmt.Sprintf(" routines=%v", v)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		got = append(got, line)
	}
	want := []string{
		"M 0 thread_name pipeline",
		"M 1 thread_name worker 0",
		"M 100 thread_name req /v1/liveness",
		"M 101 thread_name req /v1/summary",
		"X 0 analyze parent=-1 routines=3",
		"X 0 phase1 parent=0",
		"X 1 solve parent=1",
		"X 100 /v1/liveness parent=-1",
		"X 100 analyze parent=0 routines=2",
		"X 101 /v1/summary parent=-1",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace events:\n got %q\nwant %q", got, want)
	}
	if tr.NumEvents() != 3 || rt.Tracer().NumEvents() != 2 {
		t.Errorf("NumEvents = %d and %d, want 3 and 2", tr.NumEvents(), rt.Tracer().NumEvents())
	}
}

func TestTraceArgOverflowDropped(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("s")
	for i := 0; i < 10; i++ {
		sp = sp.Arg("k", int64(i))
	}
	sp.End()
	if got := tr.Spans()[0].Args(); len(got) != 4 || got[3].Val != 3 {
		t.Errorf("args after overflow = %v, want the first four", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON after arg overflow")
	}
}

// The nil observers are the disabled configuration the hot path runs
// with by default; passing them through the same call sites the
// enabled path uses must not allocate. TestNilRequestObserverZeroAlloc
// covers the serving path's nil handles.
func TestNilObserverZeroAlloc(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin("x").Arg("k", 1)
		sp.Begin("y").End()
		sp.Worker(3, "z").Arg("k", 2).End()
		if sp.Tracer() != nil {
			t.Fatal("zero span positioned a tracer")
		}
		sp.End()
		m.Counter("c").Add(5)
		m.UnstableCounter("u").Store(7)
		m.Histogram("h").Observe(9)
	})
	if allocs != 0 {
		t.Errorf("disabled observer allocates %.0f times per run, want 0", allocs)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Counter("b/second").Add(2)
	m.Counter("a/first").Add(1)
	m.UnstableCounter("c/pool").Add(3)
	h := m.Histogram("iters")
	h.Observe(0)
	h.Observe(1)
	h.Observe(5)
	h.Observe(100)

	s := m.Snapshot()
	gotNames := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		gotNames[i] = c.Name
	}
	wantNames := []string{"a/first", "b/second", "c/pool"}
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Errorf("counter order %v, want %v", gotNames, wantNames)
	}
	st := s.Stable()
	for _, c := range st.Counters {
		if c.Unstable {
			t.Errorf("Stable() kept unstable counter %s", c.Name)
		}
	}
	if len(st.Counters) != 2 {
		t.Errorf("Stable() kept %d counters, want 2", len(st.Counters))
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(s.Histograms))
	}
	hv := s.Histograms[0]
	if hv.Count != 4 || hv.Sum != 106 || hv.Min != 0 || hv.Max != 100 {
		t.Errorf("histogram count=%d sum=%d min=%d max=%d", hv.Count, hv.Sum, hv.Min, hv.Max)
	}
	var total uint64
	for _, b := range hv.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d, want 4", total)
	}

	// Equal registries marshal identically — the property the
	// cross-parallelism determinism test relies on.
	m2 := NewMetrics()
	m2.Counter("a/first").Add(1)
	m2.Counter("b/second").Add(2)
	j1, _ := json.Marshal(m.Snapshot().Stable())
	j2, _ := json.Marshal(m2.Snapshot().Stable())
	// m has the histogram, m2 does not; compare counters only.
	var d1, d2 Snapshot
	json.Unmarshal(j1, &d1)
	json.Unmarshal(j2, &d2)
	if !reflect.DeepEqual(d1.Counters, d2.Counters) {
		t.Errorf("stable counters differ: %v vs %v", d1.Counters, d2.Counters)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	m := NewMetrics()
	m.Counter("phase1/iterations").Add(42)
	m.UnstableCounter("pool/gets").Add(7)
	m.Histogram("phase1/component_iterations").Observe(6)
	var buf bytes.Buffer
	m.Snapshot().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"phase1/iterations", "42", "(unstable)", "histogram", "component_iterations"} {
		if !strings.Contains(out, want) {
			t.Errorf("text table missing %q:\n%s", want, out)
		}
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool(func() any { return new(int) })
	x := p.Get()
	p.Put(x)
	p.Get()
	gets, news := p.Stats()
	if gets != 2 {
		t.Errorf("gets = %d, want 2", gets)
	}
	if news < 1 || news > 2 {
		t.Errorf("news = %d, want 1 or 2", news)
	}
}

func TestNilTracerWrite(t *testing.T) {
	var tr *Tracer
	if err := tr.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() != 0 {
		t.Error("nil tracer has events")
	}
}

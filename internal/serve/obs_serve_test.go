package serve

// Tests for the serving observability layer: request span trees in the
// flight recorder (with a parallelism-1 golden), the debug endpoints,
// the slow-query log, the Prometheus rendering, the writeJSON encode
// counter, and a scrape-vs-query race soak.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// normalizeSpans projects a request trace onto its timing-independent
// shape: one "name parent [k=v ...]" line per span in recording order.
// At parallelism 1 every field is deterministic, so the projection can
// be pinned as a golden.
func normalizeSpans(spans []obs.SpanData) string {
	var b strings.Builder
	for _, sp := range spans {
		fmt.Fprintf(&b, "%s parent=%d", sp.Name, sp.Parent)
		args := append([]obs.Arg(nil), sp.Args()...)
		sort.Slice(args, func(i, j int) bool { return args[i].Key < args[j].Key })
		for _, a := range args {
			fmt.Fprintf(&b, " %s=%d", a.Key, a.Val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRequestSpanGolden pins the span tree of one cold-cache liveness
// query at parallelism 1: route root → cache miss → analyze →
// per-stage children, with the deterministic schedule counts as args.
func TestRequestSpanGolden(t *testing.T) {
	s, c := newTestClient(t, Config{Parallelism: 1, FlightRecorder: 8})
	id := c.mustLoad()
	status, body := c.post("/v1/liveness", api.LivenessRequest{Program: id, Routine: "main", Instr: 0})
	if status != http.StatusOK {
		t.Fatalf("liveness: status %d: %s", status, body)
	}

	var rt *obs.RequestTrace
	for _, cand := range s.flight.Last(0) {
		if cand.Route == "liveness" {
			rt = cand
		}
	}
	if rt == nil {
		t.Fatal("no liveness trace in the flight recorder")
	}
	if rt.Program() != id {
		t.Errorf("trace program = %q, want %q", rt.Program(), id)
	}
	if rt.OptionKey() == "" {
		t.Error("trace has no option key")
	}
	if rt.Status() != http.StatusOK {
		t.Errorf("trace status = %d", rt.Status())
	}
	spans := rt.Tracer().Spans()
	for i, sp := range spans {
		if i == 0 {
			if sp.Parent != -1 {
				t.Errorf("root parent = %d", sp.Parent)
			}
			continue
		}
		// Connected tree: every parent precedes its child.
		if sp.Parent < 0 || int(sp.Parent) >= i {
			t.Errorf("span %d (%s) has parent %d", i, sp.Name, sp.Parent)
		}
		if sp.Dur < 0 {
			t.Errorf("span %d (%s) left open", i, sp.Name)
		}
	}

	got := normalizeSpans(spans)
	golden := filepath.Join("testdata", "reqspans.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("request span tree drifted from golden (run with -update):\ngot:\n%swant:\n%s", got, want)
	}
}

// TestOptimizeSpansNest traces one /v1/optimize: the children of its
// "optimize" span are one "analyze" followed by one "reanalyze" per
// re-analysis the report counts, each holding its own stage spans, and
// no span repeats an arg key.
func TestOptimizeSpansNest(t *testing.T) {
	s, c := newTestClient(t, Config{FlightRecorder: 8})
	id := c.mustLoad()
	status, body := c.post("/v1/optimize", api.OptimizeRequest{Program: id})
	if status != http.StatusOK {
		t.Fatalf("optimize: status %d: %s", status, body)
	}
	var resp api.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report.Reanalyses == 0 {
		t.Fatal("the test program's optimize ran no re-analysis")
	}
	last := s.flight.Last(1)
	if len(last) != 1 || last[0].Route != "optimize" {
		t.Fatal("flight recorder's last request is not the optimize")
	}
	spans := last[0].Tracer().Spans()
	optIdx := int32(-1)
	children := map[int32][]string{}
	for i, sp := range spans {
		if sp.Name == "optimize" && sp.Parent == 0 {
			optIdx = int32(i)
		}
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp.Name)
		}
		seen := map[string]bool{}
		for _, a := range sp.Args() {
			if seen[a.Key] {
				t.Errorf("span %q repeats arg %q: %v", sp.Name, a.Key, sp.Args())
			}
			seen[a.Key] = true
		}
	}
	if optIdx < 0 {
		t.Fatal("no optimize span under the request root")
	}
	want := []string{"analyze"}
	for i := 0; i < resp.Report.Reanalyses; i++ {
		want = append(want, "reanalyze")
	}
	if got := children[optIdx]; !slices.Equal(got, want) {
		t.Errorf("optimize children = %v, want %v", got, want)
	}
	for i, sp := range spans {
		if sp.Parent != optIdx {
			continue
		}
		stages := children[int32(i)]
		for _, st := range []string{"cfg build", "psg build", "phase1", "phase2", "summaries"} {
			if !slices.Contains(stages, st) {
				t.Errorf("%s span %d lacks stage %q (has %v)", sp.Name, i, st, stages)
			}
		}
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	_, c := newTestClient(t, Config{FlightRecorder: 8})
	id := c.mustLoad()
	if status, body := c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "main"}); status != http.StatusOK {
		t.Fatalf("summary: status %d: %s", status, body)
	}

	status, body := c.get("/debug/trace")
	if status != http.StatusOK {
		t.Fatalf("debug/trace: status %d: %s", status, body)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  uint64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("not trace_event JSON: %v\n%s", err, body)
	}
	names := map[string]bool{}
	tids := map[uint64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
			tids[ev.Tid] = true
		}
	}
	for _, want := range []string{"programs", "summary", "cache miss", "analyze", "phase1", "phase2"} {
		if !names[want] {
			t.Errorf("trace dump missing span %q (have %v)", want, names)
		}
	}
	if len(tids) < 2 {
		t.Errorf("trace dump covers %d requests, want >= 2 (load + summary)", len(tids))
	}

	// ?last=1 narrows the dump to the most recent request.
	status, body = c.get("/debug/trace?last=1")
	if status != http.StatusOK {
		t.Fatalf("debug/trace?last=1: status %d", status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	tids = map[uint64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Tid] = true
		}
	}
	if len(tids) != 1 {
		t.Errorf("last=1 dump covers %d requests, want 1", len(tids))
	}

	// ?format=info reports the ring's shape.
	status, body = c.get("/debug/trace?format=info")
	if status != http.StatusOK {
		t.Fatalf("debug/trace?format=info: status %d", status)
	}
	var info api.TraceInfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Capacity != 8 || info.Recorded < 2 || info.Retained < 2 {
		t.Errorf("trace info = %+v", info)
	}

	if status, _ := c.get("/debug/trace?last=x"); status != http.StatusBadRequest {
		t.Errorf("bad last param: status %d, want 400", status)
	}
}

func TestDebugTraceDisabled(t *testing.T) {
	_, c := newTestClient(t, Config{})
	if status, _ := c.get("/debug/trace"); status != http.StatusNotFound {
		t.Errorf("disabled flight recorder: status %d, want 404", status)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var logbuf syncBuffer
	_, c := newTestClient(t, Config{SlowQuery: 1, SlowLog: &logbuf})
	id := c.mustLoad()
	if status, body := c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "main"}); status != http.StatusOK {
		t.Fatalf("summary: status %d: %s", status, body)
	}

	status, body := c.get("/debug/slowlog")
	if status != http.StatusOK {
		t.Fatalf("debug/slowlog: status %d: %s", status, body)
	}
	var slow api.SlowLogResponse
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Slow) < 2 {
		t.Fatalf("slow log has %d records at 1ns threshold, want >= 2", len(slow.Slow))
	}
	var rec *api.SlowQuery
	for i := range slow.Slow {
		if slow.Slow[i].Route == "summary" {
			rec = &slow.Slow[i]
		}
	}
	if rec == nil {
		t.Fatal("no slow record for the summary query")
	}
	if rec.Program != id || rec.OptionKey == "" || rec.Status != http.StatusOK {
		t.Errorf("slow record = %+v", rec)
	}
	stageNames := map[string]bool{}
	for _, st := range rec.Stages {
		stageNames[st.Name] = true
	}
	for _, want := range []string{"cache miss", "analyze", "phase1"} {
		if !stageNames[want] {
			t.Errorf("slow record missing stage %q (have %v)", want, stageNames)
		}
	}
	// Stages nest: phase1 runs inside the analysis, and the top-level
	// stages, which do not overlap, fit inside the request.
	var topUS int64
	for _, st := range rec.Stages {
		if st.Parent < 0 {
			topUS += st.DurationUS
		}
		if st.Name == "phase1" {
			if st.Parent < 0 || rec.Stages[st.Parent].Name != "analyze" {
				t.Errorf("phase1's parent = %d, want the analyze stage (stages %+v)", st.Parent, rec.Stages)
			}
		}
	}
	if topUS > rec.DurationUS {
		t.Errorf("top-level stages sum to %dus, more than the request's %dus", topUS, rec.DurationUS)
	}
	out := logbuf.String()
	if !strings.Contains(out, "slow query: ") || !strings.Contains(out, "route=summary") {
		t.Errorf("slow log output missing summary line:\n%s", out)
	}
	if strings.Contains(out, " phase1=") {
		t.Errorf("slow log line lists a nested stage:\n%s", out)
	}
}

// syncBuffer is an io.Writer safe for the concurrent route goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestMetricsPrometheusEndpoint(t *testing.T) {
	_, c := newTestClient(t, Config{})
	id := c.mustLoad()
	if status, _ := c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "main"}); status != http.StatusOK {
		t.Fatal("summary failed")
	}
	status, body := c.get("/metrics?format=prometheus")
	if status != http.StatusOK {
		t.Fatalf("prometheus metrics: status %d", status)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE spike_serve_requests counter",
		`spike_serve_requests{route="summary"} 1`,
		"# TYPE spike_serve_p50_us gauge",
		"# TYPE spike_serve_inflight gauge",
		"# TYPE spike_serve_latency_us histogram",
		`spike_serve_latency_us_count{route="summary"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus rendering missing %q:\n%s", want, out)
		}
	}
	if status, _ := c.get("/metrics?format=yaml"); status != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", status)
	}
}

func TestWriteJSONEncodeError(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	// A channel is not JSON-encodable; the route must degrade to a
	// well-formed 500 and count the failure.
	s.writeJSON(rec, "summary", http.StatusOK, make(chan int))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("degraded reply is not JSON: %v\n%s", err, rec.Body.String())
	}
	if !strings.Contains(e.Error, "encode") {
		t.Errorf("degraded reply error = %q", e.Error)
	}
	if got := s.encodeErrs.Value(); got != 1 {
		t.Errorf("serve/errors/encode = %d, want 1", got)
	}
	s.writeJSON(httptest.NewRecorder(), "summary", http.StatusOK, make(chan int))
	if got := s.encodeErrs.Value(); got != 2 {
		t.Errorf("serve/errors/encode = %d, want 2", got)
	}
}

// TestMetricsScrapeRace soaks concurrent scrapes against live queries:
// 16 goroutines alternating JSON and Prometheus scrapes race 16
// goroutines running queries, under -race in CI. Each scrape must be
// internally consistent: the request counter for a route is always >=
// its latency histogram count (the counter increments before the
// histogram observes), and Prometheus bucket series are cumulative.
func TestMetricsScrapeRace(t *testing.T) {
	_, c := newTestClient(t, Config{FlightRecorder: 16, SlowQuery: time.Nanosecond})
	id := c.mustLoad()
	const (
		scrapers = 16
		queriers = 16
		rounds   = 25
	)
	var wg sync.WaitGroup
	errc := make(chan error, scrapers+queriers)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				route, req := "/v1/summary", any(api.SummaryRequest{Program: id, Routine: "main"})
				if g%2 == 1 {
					route, req = "/v1/liveness", any(api.LivenessRequest{Program: id, Routine: "main", Instr: 0})
				}
				if status, body := c.post(route, req); status != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d: %s", route, status, body)
					return
				}
			}
		}(g)
	}
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if g%2 == 0 {
					status, body := c.get("/metrics")
					if status != http.StatusOK {
						errc <- fmt.Errorf("metrics: status %d", status)
						return
					}
					var m api.MetricsResponse
					if err := json.Unmarshal(body, &m); err != nil {
						errc <- fmt.Errorf("metrics scrape %d is not JSON: %v", i, err)
						return
					}
					if err := checkSnapshotConsistent(m.Metrics); err != nil {
						errc <- err
						return
					}
				} else {
					status, body := c.get("/metrics?format=prometheus")
					if status != http.StatusOK {
						errc <- fmt.Errorf("prometheus: status %d", status)
						return
					}
					if err := checkPromCumulative(string(body)); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// checkSnapshotConsistent verifies the per-route ordering invariant of
// one JSON scrape.
func checkSnapshotConsistent(s obs.Snapshot) error {
	reqs := map[string]uint64{}
	for _, cv := range s.Counters {
		if route, ok := strings.CutPrefix(cv.Name, "serve/requests/"); ok {
			reqs[route] = cv.Value
		}
	}
	for _, hv := range s.Histograms {
		route, ok := strings.CutPrefix(hv.Name, "serve/latency_us/")
		if !ok {
			continue
		}
		if n, seen := reqs[route]; seen && hv.Count > n {
			return fmt.Errorf("scrape inconsistent: %s count %d > requests %d", hv.Name, hv.Count, n)
		}
	}
	return nil
}

// checkPromCumulative verifies every _bucket series in a Prometheus
// scrape is non-decreasing in le order (the order rendered).
func checkPromCumulative(text string) error {
	last := map[string]uint64{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		name := line[:strings.Index(line, "{")]
		series := name
		if i := strings.Index(line, `route="`); i >= 0 {
			rest := line[i+len(`route="`):]
			series = name + "/" + rest[:strings.Index(rest, `"`)]
		}
		v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			return fmt.Errorf("bad bucket line %q: %v", line, err)
		}
		if prev, ok := last[series]; ok && v < prev {
			return fmt.Errorf("bucket series %s not cumulative: %d after %d", series, v, prev)
		}
		last[series] = v
	}
	if len(last) == 0 {
		return fmt.Errorf("prometheus scrape has no bucket series")
	}
	return nil
}

// TestInflightGaugeSettles checks the inflight gauge returns to zero
// once the request storm drains.
func TestInflightGaugeSettles(t *testing.T) {
	s, c := newTestClient(t, Config{})
	id := c.mustLoad()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "main"})
			}
		}()
	}
	wg.Wait()
	if got := s.inflight.Value(); got != 0 {
		t.Errorf("inflight = %d after drain, want 0", got)
	}
}

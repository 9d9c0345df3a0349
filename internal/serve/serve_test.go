package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/sxe"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSrc is the endpoint fixture: two routines, a direct call at
// main/2, a dead argument.
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

type testClient struct {
	t    testing.TB
	base string
	hc   *http.Client
}

func newTestClient(t testing.TB, conf Config) (*Server, *testClient) {
	t.Helper()
	s := New(conf)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &testClient{t: t, base: ts.URL, hc: ts.Client()}
}

// post sends req and returns the status and raw body.
func (c *testClient) post(route string, req any) (int, []byte) {
	c.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		c.t.Fatal(err)
	}
	r, err := c.hc.Post(c.base+route, "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return r.StatusCode, data
}

func (c *testClient) get(route string) (int, []byte) {
	c.t.Helper()
	r, err := c.hc.Get(c.base + route)
	if err != nil {
		c.t.Fatal(err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return r.StatusCode, data
}

// mustLoad loads testSrc and returns its program ID.
func (c *testClient) mustLoad() string {
	c.t.Helper()
	return c.mustLoadRequest(api.LoadRequest{Asm: testSrc})
}

// mustLoadRequest loads a program and returns its ID.
func (c *testClient) mustLoadRequest(req api.LoadRequest) string {
	c.t.Helper()
	status, body := c.post("/v1/programs", req)
	if status != http.StatusOK {
		c.t.Fatalf("load: status %d: %s", status, body)
	}
	var resp api.LoadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.t.Fatal(err)
	}
	return resp.Program.ID
}

// normalizeNs zeroes every key ending "_ns" and every unstable metrics
// counter anywhere in a document body — the only fields that vary run
// to run. It recurses so nested analysis documents (the optimize
// response) normalize the same way as top-level ones.
func normalizeNs(t *testing.T, body []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			if unstable, _ := v["unstable"].(bool); unstable {
				if _, ok := v["value"]; ok {
					v["value"] = 0
				}
			}
			for k, child := range v {
				if strings.HasSuffix(k, "_ns") {
					v[k] = 0
					continue
				}
				walk(child)
			}
		case []any:
			for _, child := range v {
				walk(child)
			}
		}
	}
	walk(doc)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEndpointsGolden drives every endpoint once and pins status and
// body against the golden file. The server runs at parallelism 1 so the
// parallelism stat in the analysis document is fixed; everything else
// is deterministic by design.
func TestEndpointsGolden(t *testing.T) {
	_, c := newTestClient(t, Config{Parallelism: 1})
	id := c.mustLoad()

	type exchange struct {
		Name   string          `json:"name"`
		Status int             `json:"status"`
		Body   json.RawMessage `json:"body"`
	}
	var log []exchange
	record := func(name string, status int, body []byte) {
		log = append(log, exchange{Name: name, Status: status, Body: json.RawMessage(bytes.TrimRight(body, "\n"))})
	}

	status, body := c.post("/v1/programs", api.LoadRequest{Asm: testSrc})
	record("programs", status, body)
	status, body = c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "double"})
	record("summary", status, body)
	status, body = c.post("/v1/liveness", api.LivenessRequest{Program: id, Routine: "main", Instr: 1})
	record("liveness", status, body)
	status, body = c.post("/v1/callsite", api.CallSiteRequest{Program: id, Routine: "main", Instr: 2})
	record("callsite", status, body)
	status, body = c.post("/v1/callgraph", api.CallGraphRequest{Program: id})
	record("callgraph", status, body)
	status, body = c.post("/v1/analyze", api.AnalyzeRequest{Program: id})
	record("analyze", status, normalizeNs(t, body))
	status, body = c.post("/v1/batch", api.BatchRequest{
		Program: id,
		Queries: []api.Query{
			{Kind: "summary", Routine: "double"},
			{Kind: "liveness", Routine: "main", Instr: 3},
			{Kind: "callsite", Routine: "main", Instr: 2},
			{Kind: "liveness", Routine: "nope"},
			{Kind: "teleport", Routine: "main"},
		},
	})
	record("batch", status, body)
	status, body = c.post("/v1/optimize", api.OptimizeRequest{Program: id, Verify: true})
	record("optimize", status, normalizeNs(t, body))
	status, body = c.get("/healthz")
	record("healthz", status, body)
	// Error shapes.
	status, body = c.post("/v1/summary", api.SummaryRequest{Program: "sha256:0", Routine: "main"})
	record("summary_unknown_program", status, body)
	status, body = c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "nope"})
	record("summary_unknown_routine", status, body)
	status, body = c.post("/v1/liveness", api.LivenessRequest{Program: id, Routine: "main", Instr: 99})
	record("liveness_out_of_range", status, body)
	status, body = c.post("/v1/programs", api.LoadRequest{})
	record("programs_no_source", status, body)

	got, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "endpoints.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("endpoint exchanges differ from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// repeatByte is an endless stream of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestOversizedBody413 streams a body one byte over maxBodyBytes to an
// upload route of each schema, never holding it on the client side: the
// reply is a 413 error document stamped with the route's schema.
func TestOversizedBody413(t *testing.T) {
	_, c := newTestClient(t, Config{})
	for _, tc := range []struct {
		route, prefix, schema string
	}{
		{"/v1/programs", `{"asm":"`, api.SchemaVersion},
		{"/v1/patch", `{"program":"sha256:0","routines":[{"routine":"main","asm":"`, api.SchemaVersionV2},
	} {
		body := io.MultiReader(strings.NewReader(tc.prefix),
			io.LimitReader(repeatByte(' '), maxBodyBytes+1-int64(len(tc.prefix))))
		r, err := c.hc.Post(c.base+tc.route, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", tc.route, r.StatusCode, data)
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("%s: error body is not JSON: %v\n%s", tc.route, err, data)
		}
		if er.SchemaVersion != tc.schema || !strings.Contains(er.Error, "too large") {
			t.Errorf("%s: error reply %+v, want schema %s and a too-large error", tc.route, er, tc.schema)
		}
	}
}

// TestLoadIdentity pins the content-hash identity: the same program
// loaded as assembly text, raw SXE upload and filesystem path lands on
// the same program ID, so all three share cached analyses, and so does
// an upload of an image that is not in canonical form.
func TestLoadIdentity(t *testing.T) {
	_, c := newTestClient(t, Config{})
	idAsm := c.mustLoad()

	p, err := prog.Assemble(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	image, err := sxe.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	status, body := c.post("/v1/programs", api.LoadRequest{SXE: image})
	if status != http.StatusOK {
		t.Fatalf("sxe upload: status %d: %s", status, body)
	}
	var resp api.LoadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Program.ID != idAsm {
		t.Errorf("sxe upload ID %s != asm ID %s", resp.Program.ID, idAsm)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "p.s")
	if err := os.WriteFile(path, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	status, body = c.post("/v1/programs", api.LoadRequest{Path: path})
	if status != http.StatusOK {
		t.Fatalf("path load: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Program.ID != idAsm {
		t.Errorf("path load ID %s != asm ID %s", resp.Program.ID, idAsm)
	}

	// An image of the same program that is not in canonical form is
	// re-encoded, so it lands on the canonical upload's ID. The program
	// has two identical jump tables; the image points the second
	// table's offset at the first table's copy, and writes the entry
	// index as a two-byte uvarint.
	twin, err := sxe.Encode(prog.MustAssemble(`
.start main
.routine main
.table T0 = a, b
.table T1 = a, b
  lda t9, 1(zero)
  jmp t9, T0
a:
  jmp t9, T1
b:
  halt
`))
	if err != nil {
		t.Fatal(err)
	}
	body = append([]byte(nil), twin[:len(twin)-4]...)
	// Routine main's tables (two, each [a, b] = [2, 3]) and table
	// offsets (two: 0 and 3).
	i := bytes.Index(body, []byte{2, 2, 2, 3, 2, 2, 3, 2, 0, 3})
	if i < 0 || body[4] != 0 {
		t.Fatal("unexpected image layout")
	}
	body[i+9] = 0
	odd := resealed(append(append(body[:4:4], 0x80, 0), body[5:]...))
	if idTwin, idOdd := c.mustLoadRequest(api.LoadRequest{SXE: twin}), c.mustLoadRequest(api.LoadRequest{SXE: odd}); idOdd != idTwin {
		t.Errorf("non-canonical upload ID %s != canonical upload ID %s", idOdd, idTwin)
	}
}

// TestConcurrentSoak hammers the query surface from 32 goroutines and
// requires byte-identical responses: the cached analysis, its frozen
// metrics snapshot and the per-index batch slots make every response a
// pure function of the request. Run under -race this also shakes out
// synchronization bugs in the cache and singleflight paths.
func TestConcurrentSoak(t *testing.T) {
	_, c := newTestClient(t, Config{})
	id := c.mustLoad()

	requests := []struct {
		name  string
		route string
		req   any
	}{
		{"summary", "/v1/summary", api.SummaryRequest{Program: id, Routine: "main"}},
		{"summary2", "/v1/summary", api.SummaryRequest{Program: id, Routine: "double"}},
		{"liveness", "/v1/liveness", api.LivenessRequest{Program: id, Routine: "main", Instr: 1}},
		{"callsite", "/v1/callsite", api.CallSiteRequest{Program: id, Routine: "main", Instr: 2}},
		{"callgraph", "/v1/callgraph", api.CallGraphRequest{Program: id}},
		{"analyze", "/v1/analyze", api.AnalyzeRequest{Program: id}},
		{"batch", "/v1/batch", api.BatchRequest{Program: id, Queries: []api.Query{
			{Kind: "summary", Routine: "double"},
			{Kind: "liveness", Routine: "main", Instr: 3},
			{Kind: "callsite", Routine: "main", Instr: 2},
		}}},
		{"openworld", "/v1/summary", api.SummaryRequest{Program: id, Routine: "main", Options: api.Options{OpenWorld: true}}},
	}
	bodies := make([][]byte, len(requests))
	payload := make([][]byte, len(requests))
	for i, r := range requests {
		var err error
		if payload[i], err = json.Marshal(r.req); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 32
	const rounds = 6
	var mu sync.Mutex
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				// Stagger starting points so requests interleave.
				for k := 0; k < len(requests); k++ {
					i := (g + round + k) % len(requests)
					resp, err := c.hc.Post(c.base+requests[i].route, "application/json",
						bytes.NewReader(payload[i]))
					if err != nil {
						errc <- err
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("%s: status %d: %s", requests[i].name, resp.StatusCode, body)
						return
					}
					mu.Lock()
					if bodies[i] == nil {
						bodies[i] = body
					} else if !bytes.Equal(bodies[i], body) {
						mu.Unlock()
						errc <- fmt.Errorf("%s: response bytes differ between requests", requests[i].name)
						return
					}
					mu.Unlock()
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

// TestCacheEviction bounds the analysis cache to one entry and
// alternates two option sets: each switch must recompute and evict,
// and the eviction counter must say so.
func TestCacheEviction(t *testing.T) {
	m := obs.NewMetrics()
	s, c := newTestClient(t, Config{MaxAnalyses: 1, Metrics: m})
	id := c.mustLoad()

	ask := func(o api.Options) {
		t.Helper()
		status, body := c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "main", Options: o})
		if status != http.StatusOK {
			t.Fatalf("summary: status %d: %s", status, body)
		}
	}
	ask(api.Options{})                // miss, compute
	ask(api.Options{OpenWorld: true}) // miss, insert evicts the first
	ask(api.Options{})                // miss again: it was evicted

	counter := func(name string) uint64 {
		for _, cv := range m.Snapshot().Counters {
			if cv.Name == name {
				return cv.Value
			}
		}
		return 0
	}
	if got := counter("serve/analysis_cache_misses"); got != 3 {
		t.Errorf("analysis_cache_misses = %d, want 3", got)
	}
	if got := counter("serve/analysis_cache_evictions"); got != 2 {
		t.Errorf("analysis_cache_evictions = %d, want 2", got)
	}
	if got := counter("serve/analysis_cache_hits"); got != 0 {
		t.Errorf("analysis_cache_hits = %d, want 0", got)
	}
	if n := s.analyses.len(); n != 1 {
		t.Errorf("analysis cache holds %d entries, want 1", n)
	}

	// A repeat of the cached option set is a hit, no eviction.
	ask(api.Options{})
	if got := counter("serve/analysis_cache_hits"); got != 1 {
		t.Errorf("after repeat, analysis_cache_hits = %d, want 1", got)
	}
	if got := counter("serve/analysis_cache_evictions"); got != 2 {
		t.Errorf("after repeat, analysis_cache_evictions = %d, want 2", got)
	}
}

// TestProgramEviction bounds the program registry and loads past it.
func TestProgramEviction(t *testing.T) {
	m := obs.NewMetrics()
	s, c := newTestClient(t, Config{MaxPrograms: 2, Metrics: m})
	var ids []string
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf(".start main\n.routine main\n  lda a0, %d(zero)\n  print a0\n  halt\n", i)
		status, body := c.post("/v1/programs", api.LoadRequest{Asm: src})
		if status != http.StatusOK {
			t.Fatalf("load %d: status %d: %s", i, status, body)
		}
		var resp api.LoadResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.Program.ID)
	}
	if n := s.programs.len(); n != 2 {
		t.Errorf("program registry holds %d entries, want 2", n)
	}
	// The oldest program fell out; querying it is a 404 now.
	status, _ := c.post("/v1/summary", api.SummaryRequest{Program: ids[0], Routine: "main"})
	if status != http.StatusNotFound {
		t.Errorf("evicted program: status %d, want 404", status)
	}
	// The newest is still resident.
	status, body := c.post("/v1/summary", api.SummaryRequest{Program: ids[2], Routine: "main"})
	if status != http.StatusOK {
		t.Errorf("resident program: status %d: %s", status, body)
	}
}

// TestAbandonedRequestCancelsAnalysis pins the request-lifecycle
// contract: when the only request waiting on an in-flight analysis is
// cancelled, the analysis is cancelled too and its cache slot dropped,
// so the next request starts clean.
func TestAbandonedRequestCancelsAnalysis(t *testing.T) {
	s := New(Config{Parallelism: 1})
	// Big enough that the compute cannot finish inside the race window.
	big := progen.Generate(progen.TestProfile(300), progen.DefaultOptions(11))
	image, err := sxe.Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := s.load(&api.LoadRequest{SXE: image})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.analysis(ctx, lp, api.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("analysis under cancelled context: err = %v, want context.Canceled", err)
	}
	if n := s.analyses.len(); n != 0 {
		t.Errorf("abandoned analysis left %d cache entries, want 0", n)
	}
	// The slot is clean: a live request computes from scratch.
	ent, err := s.analysis(context.Background(), lp, api.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ent.a == nil {
		t.Fatal("retry returned no analysis")
	}
}

// TestServerMetrics checks the daemon's own instruments: request
// counters and latency histograms per endpoint, hit/miss counters for
// the caches.
func TestServerMetrics(t *testing.T) {
	m := obs.NewMetrics()
	_, c := newTestClient(t, Config{Metrics: m})
	id := c.mustLoad()
	c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "main"})
	c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "double"})
	c.get("/healthz")

	snap := m.Snapshot()
	counters := make(map[string]uint64)
	for _, cv := range snap.Counters {
		counters[cv.Name] = cv.Value
	}
	if counters["serve/requests/summary"] != 2 {
		t.Errorf("serve/requests/summary = %d, want 2", counters["serve/requests/summary"])
	}
	if counters["serve/requests/programs"] != 1 {
		t.Errorf("serve/requests/programs = %d, want 1", counters["serve/requests/programs"])
	}
	if counters["serve/analysis_cache_misses"] != 1 || counters["serve/analysis_cache_hits"] != 1 {
		t.Errorf("analysis cache hits/misses = %d/%d, want 1/1",
			counters["serve/analysis_cache_hits"], counters["serve/analysis_cache_misses"])
	}
	var sawLatency bool
	for _, h := range snap.Histograms {
		if h.Name == "serve/latency_us/summary" {
			sawLatency = true
			if h.Count != 2 {
				t.Errorf("latency histogram count = %d, want 2", h.Count)
			}
		}
	}
	if !sawLatency {
		t.Error("no serve/latency_us/summary histogram")
	}

	// /metrics serves the same registry over the wire.
	status, body := c.get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	var mr api.MetricsResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.SchemaVersion != api.SchemaVersion {
		t.Errorf("metrics schema_version = %q", mr.SchemaVersion)
	}
	if len(mr.Metrics.Counters) == 0 {
		t.Error("/metrics has no counters")
	}
}

// TestSmoke runs the daemon self-test against the checked-in example.
func TestSmoke(t *testing.T) {
	if err := Smoke("../../examples/fig2.s", Config{Parallelism: 1}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// The serve benchmarks measure the daemon's steady state: the analysis
// is cached, so each request is decode → cache hit → render. They
// report queries/sec and latency quantiles; cmd/benchjson routes
// BenchmarkServe* into the "serve" section of BENCH_phases.json.

// benchServer brings up a daemon with a mid-sized generated program
// loaded and its default-options analysis already cached. conf lets a
// benchmark turn the observability surfaces on; Metrics is always
// installed.
func benchServer(b *testing.B, conf Config) (*Server, *testClient, string, *obs.Metrics) {
	b.Helper()
	m := obs.NewMetrics()
	conf.Metrics = m
	s, c := newTestClient(b, conf)
	p := progen.Generate(progen.TestProfile(60), progen.DefaultOptions(1))
	image, err := sxe.Encode(p)
	if err != nil {
		b.Fatal(err)
	}
	status, body := c.post("/v1/programs", api.LoadRequest{SXE: image})
	if status != http.StatusOK {
		b.Fatalf("load: status %d: %s", status, body)
	}
	var resp api.LoadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		b.Fatal(err)
	}
	id := resp.Program.ID
	// Warm the analysis cache so the loop measures query serving.
	if status, body := c.post("/v1/callgraph", api.CallGraphRequest{Program: id}); status != http.StatusOK {
		b.Fatalf("warm: status %d: %s", status, body)
	}
	return s, c, id, m
}

// driveRequests posts payload b.N times, recording per-request
// latency, and reports qps and quantiles.
func driveRequests(b *testing.B, c *testClient, route string, req any) {
	payload, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	lats := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		resp, err := c.hc.Post(c.base+route, "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: status %d", route, resp.StatusCode)
		}
		lats = append(lats, time.Since(t0))
	}
	elapsed := time.Since(start)
	b.StopTimer()
	reportLatencies(b, lats, elapsed)
}

// reportLatencies publishes throughput and latency quantiles as
// benchmark metrics.
func reportLatencies(b *testing.B, lats []time.Duration, elapsed time.Duration) {
	if len(lats) == 0 || elapsed <= 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "qps")
	b.ReportMetric(float64(q(0.50).Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(q(0.99).Nanoseconds()), "p99-ns")
}

// reportSLO publishes the per-route p50/p99 gauges the daemon computed
// from its rolling windows, so benchjson carries them in the "serve"
// section alongside the client-side quantiles.
func reportSLO(b *testing.B, s *Server, m *obs.Metrics, route string) {
	s.publishSLOGauges()
	obs.ReportCounters(b, m, "serve/p50_us/"+route, "serve/p99_us/"+route)
}

// BenchmarkServeSummary is one point query against the warm cache,
// with request tracing off (the zero-alloc disabled path).
func BenchmarkServeSummary(b *testing.B) {
	s, c, id, m := benchServer(b, Config{})
	driveRequests(b, c, "/v1/summary", api.SummaryRequest{Program: id, Routine: "main"})
	obs.ReportCounters(b, m, "serve/analysis_cache_hits", "serve/analysis_cache_misses")
	reportSLO(b, s, m, "summary")
}

// BenchmarkServeSummaryObserved is the same query with the production
// observability on — flight recorder retaining 256 span trees and the
// slow-query log armed (threshold high enough that cache hits never
// trip it). Comparing against BenchmarkServeSummary bounds the tracing
// overhead; the budget is <3%.
func BenchmarkServeSummaryObserved(b *testing.B) {
	s, c, id, m := benchServer(b, Config{FlightRecorder: 256, SlowQuery: time.Second, SlowLog: io.Discard})
	driveRequests(b, c, "/v1/summary", api.SummaryRequest{Program: id, Routine: "main"})
	obs.ReportCounters(b, m, "serve/analysis_cache_hits", "serve/slow_queries")
	reportSLO(b, s, m, "summary")
}

// BenchmarkServeLiveness exercises the memoized per-routine liveness
// path.
func BenchmarkServeLiveness(b *testing.B) {
	_, c, id, _ := benchServer(b, Config{})
	driveRequests(b, c, "/v1/liveness", api.LivenessRequest{Program: id, Routine: "main", Instr: 0})
}

// BenchmarkServeBatch fans 32 mixed queries per request over the
// worker pool.
func BenchmarkServeBatch(b *testing.B) {
	_, c, id, _ := benchServer(b, Config{})
	queries := make([]api.Query, 0, 32)
	for i := 0; i < 16; i++ {
		queries = append(queries,
			api.Query{Kind: "summary", Routine: fmt.Sprintf("proc%d", i+1)},
			api.Query{Kind: "liveness", Routine: fmt.Sprintf("proc%d", i+1), Instr: 0})
	}
	req := api.BatchRequest{Program: id, Queries: queries}
	// Verify once that every query resolves; the timed loop only checks
	// the HTTP status.
	status, body := c.post("/v1/batch", req)
	if status != http.StatusOK {
		b.Fatalf("batch: status %d: %s", status, body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		b.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			b.Fatalf("batch query %d: %s", i, res.Error)
		}
	}
	driveRequests(b, c, "/v1/batch", req)
}

// routineAsm returns routine ri's body as patch text: its lines of the
// program's disassembly, without the .routine header.
func routineAsm(p *prog.Program, ri int) string {
	shell := &prog.Program{Routines: make([]*prog.Routine, len(p.Routines))}
	for i, r := range p.Routines {
		shell.Routines[i] = &prog.Routine{Name: r.Name}
	}
	shell.Routines[ri] = p.Routines[ri]
	text := prog.Disassemble(shell)
	head := ".routine " + p.Routines[ri].Name + "\n"
	body := text[strings.Index(text, head)+len(head):]
	if j := strings.Index(body, "\n.routine "); j >= 0 {
		body = body[:j+1]
	}
	return body
}

// BenchmarkPatchRoute is the daemon's write path through
// Server.Handler(), without a network: every iteration applies the same
// single-routine body edit to a loaded vc@0.1 program (about 50k
// instructions), so each one re-analyzes from the cached base analysis,
// splices and hashes the patched program's image, and writes the
// response with its document.
func BenchmarkPatchRoute(b *testing.B) {
	prof, _ := progen.ProfileByName("vc")
	p := progen.Generate(prof.Scale(0.1), progen.DefaultOptions(1))
	image, err := sxe.Encode(p)
	if err != nil {
		b.Fatal(err)
	}
	h := New(Config{}).Handler()
	post := func(route string, req any) []byte {
		payload, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(payload)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", route, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	var load api.LoadResponse
	if err := json.Unmarshal(post("/v1/programs", api.LoadRequest{SXE: image}), &load); err != nil {
		b.Fatal(err)
	}
	edited, _ := progen.MutateKind(p, 1, progen.MutBodyEdit)
	ri := 0
	for edited.Routines[ri] == p.Routines[ri] {
		ri++
	}
	req := api.PatchRequest{Program: load.Program.ID,
		Routines: []api.RoutinePatch{{Routine: p.Routines[ri].Name, Asm: routineAsm(edited, ri)}}}
	post("/v1/patch", req) // computes the base analysis the patches start from
	payload, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/patch", bytes.NewReader(payload)))
		if rec.Code != http.StatusOK {
			b.Fatalf("patch: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkLoadRoute is the daemon's upload path through
// Server.Handler(), without a network: every iteration posts the image
// of a vc@0.1 program (about 50k instructions) to /v1/programs as
// json.Marshal writes the request, and the daemon decodes it and
// registers the program under its ID.
func BenchmarkLoadRoute(b *testing.B) {
	prof, _ := progen.ProfileByName("vc")
	image, err := sxe.Encode(progen.Generate(prof.Scale(0.1), progen.DefaultOptions(1)))
	if err != nil {
		b.Fatal(err)
	}
	payload, err := json.Marshal(api.LoadRequest{SXE: image})
	if err != nil {
		b.Fatal(err)
	}
	h := New(Config{}).Handler()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/programs", bytes.NewReader(payload)))
		if rec.Code != http.StatusOK {
			b.Fatalf("load: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

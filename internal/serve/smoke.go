package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"repro/internal/api"
)

// Smoke is the daemon's self-test: it brings up a server in-process on
// a loopback listener, loads the program at path, and drives the query
// surface end to end — load, summary, liveness, batch, optimize —
// asserting every response is 200 and that the analysis cache reports
// a hit on a repeated query and on the first query of the optimized
// program. The observability surfaces are force-enabled and exercised
// too: the flight recorder must replay the requests as a Chrome trace,
// the Prometheus rendering must expose the request counters, pprof
// must answer, and — with the slow threshold forced to its minimum —
// every request must land in the slow-query log. It is what
// `spike serve -smoke` and `make serve-smoke` run; progress goes to w, and
// any failure is the returned error.
func Smoke(path string, conf Config, w io.Writer) error {
	if conf.FlightRecorder <= 0 {
		conf.FlightRecorder = 64
	}
	// The minimum threshold: every request exceeds 1ns, so the slow
	// path is exercised deterministically.
	conf.SlowQuery = 1
	conf.Pprof = true
	srv := New(conf)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &smokeClient{base: ts.URL, hc: ts.Client()}
	fmt.Fprintf(w, "smoke: serving on %s\n", ts.URL)

	// Load.
	var loaded api.LoadResponse
	if err := c.post("/v1/programs", api.LoadRequest{Path: path}, &loaded); err != nil {
		return fmt.Errorf("smoke: load %s: %w", path, err)
	}
	if len(loaded.Program.Routines) == 0 {
		return fmt.Errorf("smoke: %s loaded with no routines", path)
	}
	id := loaded.Program.ID
	routine := loaded.Program.Routines[0].Name
	fmt.Fprintf(w, "smoke: loaded %s as %s (%d routines, %d instructions)\n",
		path, id, len(loaded.Program.Routines), loaded.Program.Instructions)

	// First summary query: a cache miss that runs the analysis.
	var sum api.SummaryResponse
	if err := c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: routine}, &sum); err != nil {
		return fmt.Errorf("smoke: summary %s: %w", routine, err)
	}
	fmt.Fprintf(w, "smoke: summary of %s: %d entries, %d exits\n",
		routine, len(sum.Summary.Entries), len(sum.Summary.Exits))

	// Liveness at the routine's first instruction.
	var liv api.LivenessResponse
	if err := c.post("/v1/liveness", api.LivenessRequest{Program: id, Routine: routine}, &liv); err != nil {
		return fmt.Errorf("smoke: liveness %s/0: %w", routine, err)
	}
	fmt.Fprintf(w, "smoke: liveness at %s/0: before=%s after=%s\n",
		routine, liv.Point.LiveBefore, liv.Point.LiveAfter)

	// Batch over every routine.
	queries := make([]api.Query, 0, len(loaded.Program.Routines))
	for _, r := range loaded.Program.Routines {
		queries = append(queries, api.Query{Kind: "summary", Routine: r.Name})
	}
	var batch api.BatchResponse
	if err := c.post("/v1/batch", api.BatchRequest{Program: id, Queries: queries}, &batch); err != nil {
		return fmt.Errorf("smoke: batch: %w", err)
	}
	for i, res := range batch.Results {
		if res.Error != "" {
			return fmt.Errorf("smoke: batch query %d (%s): %s", i, queries[i].Routine, res.Error)
		}
	}
	fmt.Fprintf(w, "smoke: batch answered %d queries\n", len(batch.Results))

	// Optimize: the v2 endpoint must answer, register the optimized
	// program under its own ID, and serve a repeated request from the
	// cache.
	var opt api.OptimizeResponse
	if err := c.post("/v1/optimize", api.OptimizeRequest{Program: id}, &opt); err != nil {
		return fmt.Errorf("smoke: optimize: %w", err)
	}
	if opt.Program.ID == "" || opt.Base != id {
		return fmt.Errorf("smoke: optimize response malformed: base=%q new=%q", opt.Base, opt.Program.ID)
	}
	if opt.Report.InstructionsAfter > opt.Report.InstructionsBefore {
		return fmt.Errorf("smoke: optimize grew the program: %d -> %d instructions",
			opt.Report.InstructionsBefore, opt.Report.InstructionsAfter)
	}
	fmt.Fprintf(w, "smoke: optimize %s -> %s (%d -> %d instructions, %d rounds)\n",
		id, opt.Program.ID, opt.Report.InstructionsBefore, opt.Report.InstructionsAfter,
		opt.Report.Rounds)
	optHitsBefore, err := c.counter("serve/analysis_cache_hits")
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	if err := c.post("/v1/optimize", api.OptimizeRequest{Program: id}, &opt); err != nil {
		return fmt.Errorf("smoke: repeat optimize: %w", err)
	}
	optHitsAfter, err := c.counter("serve/analysis_cache_hits")
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	if optHitsAfter <= optHitsBefore {
		return fmt.Errorf("smoke: repeated optimize did not hit the cache (hits %d -> %d)",
			optHitsBefore, optHitsAfter)
	}
	fmt.Fprintf(w, "smoke: repeat optimize hit the cache (hits %d -> %d)\n",
		optHitsBefore, optHitsAfter)

	// The optimize request installed the optimized program's analysis,
	// so the first v1 query of the new ID must be a cache hit, not a
	// second compute.
	optMissesBefore, err := c.counter("serve/analysis_cache_misses")
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	if err := c.post("/v1/summary", api.SummaryRequest{Program: opt.Program.ID, Routine: routine}, &sum); err != nil {
		return fmt.Errorf("smoke: summary of optimized %s: %w", routine, err)
	}
	optHitsAfterRead, err := c.counter("serve/analysis_cache_hits")
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	optMissesAfter, err := c.counter("serve/analysis_cache_misses")
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	if optHitsAfterRead <= optHitsAfter || optMissesAfter != optMissesBefore {
		return fmt.Errorf("smoke: first query of the optimized program was not served from the optimize result (hits %d -> %d, misses %d -> %d)",
			optHitsAfter, optHitsAfterRead, optMissesBefore, optMissesAfter)
	}
	fmt.Fprintf(w, "smoke: first query of optimized %s hit the analysis cache (hits %d -> %d)\n",
		opt.Program.ID, optHitsAfter, optHitsAfterRead)

	// Repeat the first query and verify the analysis cache served it.
	hitsBefore, err := c.counter("serve/analysis_cache_hits")
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	if err := c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: routine}, &sum); err != nil {
		return fmt.Errorf("smoke: repeat summary: %w", err)
	}
	hitsAfter, err := c.counter("serve/analysis_cache_hits")
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	if hitsAfter <= hitsBefore {
		return fmt.Errorf("smoke: repeated query did not hit the analysis cache (hits %d -> %d)",
			hitsBefore, hitsAfter)
	}
	fmt.Fprintf(w, "smoke: repeat query hit the analysis cache (hits %d -> %d)\n",
		hitsBefore, hitsAfter)

	// Flight recorder: the queries above must replay as a Chrome trace
	// with the analysis attributed inside a request span tree.
	traceRaw, err := c.raw("/debug/trace")
	if err != nil {
		return fmt.Errorf("smoke: debug/trace: %w", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceRaw, &trace); err != nil {
		return fmt.Errorf("smoke: debug/trace is not trace_event JSON: %w", err)
	}
	spanNames := make(map[string]bool)
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spanNames[ev.Name] = true
		}
	}
	for _, want := range []string{"summary", "analyze", "phase1", "cache hit"} {
		if !spanNames[want] {
			return fmt.Errorf("smoke: flight recorder has no %q span (spans: %d events)", want, len(trace.TraceEvents))
		}
	}
	fmt.Fprintf(w, "smoke: flight recorder replayed %d trace events\n", len(trace.TraceEvents))

	// Prometheus exposition.
	prom, err := c.raw("/metrics?format=prometheus")
	if err != nil {
		return fmt.Errorf("smoke: prometheus metrics: %w", err)
	}
	for _, want := range []string{
		"# TYPE spike_serve_requests counter",
		`spike_serve_requests{route="summary"}`,
		"# TYPE spike_serve_p99_us gauge",
		"# TYPE spike_serve_latency_us histogram",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			return fmt.Errorf("smoke: prometheus rendering missing %q", want)
		}
	}
	fmt.Fprintf(w, "smoke: prometheus exposition ok (%d bytes)\n", len(prom))

	// pprof index answers when the opt-in is on.
	if _, err := c.raw("/debug/pprof/"); err != nil {
		return fmt.Errorf("smoke: pprof index: %w", err)
	}
	fmt.Fprintf(w, "smoke: pprof index ok\n")

	// With the threshold forced to 1ns, every request is a slow query.
	var slow api.SlowLogResponse
	if err := c.get("/debug/slowlog", &slow); err != nil {
		return fmt.Errorf("smoke: debug/slowlog: %w", err)
	}
	if len(slow.Slow) == 0 {
		return fmt.Errorf("smoke: slow-query log empty at minimum threshold")
	}
	found := false
	for _, q := range slow.Slow {
		if q.Route == "summary" && q.Program == id && len(q.Stages) > 0 {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("smoke: no slow-query record for summary of %s with stages", id)
	}
	fmt.Fprintf(w, "smoke: slow-query log captured %d records\n", len(slow.Slow))

	// Health.
	var health api.HealthResponse
	if err := c.get("/healthz", &health); err != nil {
		return fmt.Errorf("smoke: healthz: %w", err)
	}
	if health.Status != "ok" || health.Programs < 1 || health.Analyses < 1 {
		return fmt.Errorf("smoke: unhealthy: %+v", health)
	}
	fmt.Fprintf(w, "smoke: ok (%d program, %d analysis cached)\n",
		health.Programs, health.Analyses)
	return nil
}

type smokeClient struct {
	base string
	hc   *http.Client
}

func (c *smokeClient) post(route string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.do(func() (*http.Response, error) {
		return c.hc.Post(c.base+route, "application/json", bytes.NewReader(body))
	}, resp)
}

func (c *smokeClient) get(route string, resp any) error {
	return c.do(func() (*http.Response, error) {
		return c.hc.Get(c.base + route)
	}, resp)
}

func (c *smokeClient) do(send func() (*http.Response, error), resp any) error {
	r, err := send()
	if err != nil {
		return err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		var e api.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("status %d: %s", r.StatusCode, e.Error)
		}
		return fmt.Errorf("status %d: %s", r.StatusCode, data)
	}
	return json.Unmarshal(data, resp)
}

// raw fetches a route and returns the body bytes without assuming a
// JSON envelope (the trace dump, Prometheus text, pprof HTML).
func (c *smokeClient) raw(route string) ([]byte, error) {
	r, err := c.hc.Get(c.base + route)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", r.StatusCode, data)
	}
	return data, nil
}

func (c *smokeClient) counter(name string) (uint64, error) {
	var m api.MetricsResponse
	if err := c.get("/metrics", &m); err != nil {
		return 0, err
	}
	for _, cv := range m.Metrics.Counters {
		if cv.Name == name {
			return cv.Value, nil
		}
	}
	return 0, nil
}

package serve

// The operator debug surface: GET /debug/trace (flight-recorder dump
// as Chrome trace_event JSON), GET /debug/slowlog (retained slow-query
// records), the Prometheus rendering of GET /metrics, and the opt-in
// net/http/pprof mount. Everything here reads state the hot path
// already maintains; none of it is on a query's critical path.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// The SLO gauges are computed over a sliding one-minute window: 12
// slices of 5s, so a latency regression is visible within one slice
// and forgotten within a minute of recovery.
const (
	sloWindowSlices = 12
	sloWindowSlice  = 5 * time.Second
)

// slowRingCap bounds the slow-query records retained for
// /debug/slowlog; the ring overwrites oldest-first.
const slowRingCap = 64

// slowRing is a small mutex-guarded ring of slow-query records. Slow
// queries are rare by definition (they crossed the operator-set
// threshold), so a mutex is fine here where the flight recorder needs
// to be lock-free.
type slowRing struct {
	mu   sync.Mutex
	recs []api.SlowQuery
	seq  uint64
}

func (r *slowRing) add(q api.SlowQuery) {
	r.mu.Lock()
	if len(r.recs) < slowRingCap {
		r.recs = append(r.recs, q)
	} else {
		r.recs[r.seq%slowRingCap] = q
	}
	r.seq++
	r.mu.Unlock()
}

// snapshot returns the retained records, oldest first.
func (r *slowRing) snapshot() []api.SlowQuery {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]api.SlowQuery, 0, len(r.recs))
	if len(r.recs) == slowRingCap {
		start := r.seq % slowRingCap
		out = append(out, r.recs[start:]...)
		out = append(out, r.recs[:start]...)
	} else {
		out = append(out, r.recs...)
	}
	return out
}

// recordSlow turns a completed request trace into a slow-query record:
// request identity, the program/options it resolved to, and the
// per-stage latency breakdown (every non-root span, recording order,
// each with its enclosing stage). The log line lists the top-level
// stages only, whose durations do not overlap.
func (s *Server) recordSlow(rt *obs.RequestTrace) {
	s.slowCount.Add(1)
	spans := rt.Tracer().Spans()
	q := api.SlowQuery{
		RequestID:  rt.ID,
		Route:      rt.Route,
		Program:    rt.Program(),
		OptionKey:  rt.OptionKey(),
		Status:     rt.Status(),
		DurationUS: rt.Duration().Microseconds(),
	}
	for _, sp := range spans[1:] {
		dur := sp.Dur
		if dur < 0 {
			dur = 0
		}
		// Stages[i] is spans[i+1], so the request root, span 0, maps
		// to -1.
		q.Stages = append(q.Stages, api.StageDuration{
			Name: sp.Name, DurationUS: dur / 1e3, Parent: int(sp.Parent) - 1,
		})
	}
	s.slowRing.add(q)
	if s.conf.SlowLog != nil {
		var b bytes.Buffer
		fmt.Fprintf(&b, "slow query: id=%d route=%s status=%d dur=%dus program=%s options=%q stages=[",
			q.RequestID, q.Route, q.Status, q.DurationUS, q.Program, q.OptionKey)
		sep := ""
		for _, st := range q.Stages {
			if st.Parent < 0 {
				fmt.Fprintf(&b, "%s%s=%dus", sep, st.Name, st.DurationUS)
				sep = " "
			}
		}
		b.WriteString("]\n")
		s.conf.SlowLog.Write(b.Bytes())
	}
}

// publishSLOGauges stores each route's rolling-window p50/p99 (in µs)
// into the registry, so both /metrics renderings expose them. Called
// at scrape time — the windows absorb observations on the hot path;
// the quantile merge happens only when someone asks.
func (s *Server) publishSLOGauges() {
	for _, ro := range s.routes {
		if ro.window.Count() == 0 {
			continue
		}
		ro.p50.Store(ro.window.Quantile(0.50))
		ro.p99.Store(ro.window.Quantile(0.99))
	}
}

// handleDebugTrace dumps the flight recorder: the span trees of the
// last N completed requests (?last=N; default all retained) as one
// Chrome trace_event document, loadable in Perfetto. ?format=info
// returns the recorder's shape as JSON instead.
func (s *Server) handleDebugTrace(r *http.Request) (int, any) {
	if s.flight == nil {
		return errResp(http.StatusNotFound,
			"flight recorder disabled (enable with Config.FlightRecorder / spike serve -flightrecorder)")
	}
	if r.URL.Query().Get("format") == "info" {
		return http.StatusOK, api.TraceInfoResponse{
			SchemaVersion: api.SchemaVersion,
			Capacity:      s.flight.Cap(),
			Recorded:      s.flight.Recorded(),
			Retained:      len(s.flight.Last(0)),
		}
	}
	last := 0
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return errResp(http.StatusBadRequest, "bad last=%q (want a non-negative integer)", v)
		}
		last = n
	}
	traces := s.flight.Last(last)
	trees := make([]*obs.Tracer, len(traces))
	for i, rt := range traces {
		trees[i] = rt.Tracer()
	}
	var buf bytes.Buffer
	if err := obs.WriteTraces(&buf, trees...); err != nil {
		return errResp(http.StatusInternalServerError, "trace export: %v", err)
	}
	return http.StatusOK, rawResponse{contentType: "application/json", data: buf.Bytes()}
}

// handleDebugSlowlog returns the retained slow-query records.
func (s *Server) handleDebugSlowlog(*http.Request) (int, any) {
	return http.StatusOK, api.SlowLogResponse{
		SchemaVersion: api.SchemaVersion,
		ThresholdUS:   s.conf.SlowQuery.Microseconds(),
		Slow:          s.slowRing.snapshot(),
	}
}

// promContentType is the Prometheus text exposition content type
// (format 0.0.4).
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricsPrometheus renders the registry in Prometheus text format.
func (s *Server) metricsPrometheus() (int, any) {
	var buf bytes.Buffer
	if err := s.metrics.Snapshot().WritePrometheus(&buf, "spike"); err != nil {
		return errResp(http.StatusInternalServerError, "prometheus render: %v", err)
	}
	return http.StatusOK, rawResponse{contentType: promContentType, data: buf.Bytes()}
}

// mountPprof exposes the standard profiling endpoints on the daemon's
// mux. net/http/pprof normally registers on http.DefaultServeMux as an
// import side effect; the daemon serves its own mux, so the handlers
// are mounted explicitly — and only when Config.Pprof opts in.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

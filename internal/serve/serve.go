// Package serve implements the analysis service: a long-running HTTP
// daemon that loads SXE programs, runs the interprocedural analysis
// once per (program content-hash × option set), and answers point
// queries — routine summaries, per-point liveness, call-site effects,
// callgraph structure — from the converged result. `spike serve` is a
// thin wrapper over this package; the wire format is the versioned
// documents of internal/api.
//
// The design inverts the batch pipeline's lifecycle: instead of one
// analysis per process invocation, the daemon amortizes one analysis
// across arbitrarily many queries. Programs are identified by content
// hash, so reloading an identical binary — by path, upload or assembly
// — reuses the cached analysis. Both caches are LRU-bounded; concurrent
// requests for an uncached analysis share a single compute
// (singleflight), and when every waiting request has been abandoned the
// in-flight analysis is cancelled through its context.
package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/sxe"
)

// Default cache capacities; override via Config.
const (
	DefaultMaxPrograms = 16
	DefaultMaxAnalyses = 64
)

// maxBodyBytes bounds request bodies (SXE uploads dominate).
const maxBodyBytes = 64 << 20

// Config configures a Server. The zero value is usable: default cache
// capacities, GOMAXPROCS parallelism, a fresh metrics registry.
type Config struct {
	// Addr is the listen address for ListenAndServe ("host:port";
	// ":8723" style works). Ignored when serving on an external
	// listener or via Handler.
	Addr string

	// Parallelism bounds the analysis solver workers and the batch
	// query fan-out; <= 0 selects GOMAXPROCS.
	Parallelism int

	// MaxPrograms and MaxAnalyses bound the two LRU caches (entries,
	// not bytes); <= 0 selects the defaults.
	MaxPrograms int
	MaxAnalyses int

	// Metrics receives the daemon's instruments (per-endpoint request
	// counters and latency histograms, cache hit/miss/eviction
	// counters). A fresh registry is created when nil. This registry is
	// the daemon's own; each cached analysis runs against a private
	// registry, snapshotted when the analysis converges, and every
	// document rendered from that analysis carries the snapshot.
	Metrics *obs.Metrics

	// FlightRecorder, when > 0, retains the span trees of the last N
	// completed requests in a lock-free ring, dumpable as Chrome
	// trace_event JSON via GET /debug/trace. 0 — the default — disables
	// request tracing entirely; the disabled path records nothing and
	// allocates nothing per request.
	FlightRecorder int

	// SlowQuery, when > 0, is the latency threshold above which a
	// completed request is recorded into the slow-query log
	// (GET /debug/slowlog) with its program hash, option key and
	// per-stage breakdown, and — when SlowLog is set — written there as
	// one line. Implies request tracing even with FlightRecorder 0.
	SlowQuery time.Duration

	// SlowLog receives one line per slow query (nil: records are kept
	// for /debug/slowlog but nothing is written).
	SlowLog io.Writer

	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints on a production port are an operator opt-in.
	Pprof bool
}

// Server is the analysis service. Create with New; serve its Handler
// on any http.Server, or use ListenAndServe for the managed daemon
// lifecycle.
type Server struct {
	conf    Config
	metrics *obs.Metrics
	mux     *http.ServeMux

	programs *lruCache // program id → *loadedProgram
	analyses *lruCache // analysisKey(id, options) → *analysisEntry, shared by every schema

	progLoads  *obs.Counter
	progHits   *obs.Counter
	progMisses *obs.Counter
	progEvicts *obs.Counter
	anaHits    *obs.Counter
	anaMisses  *obs.Counter
	anaEvicts  *obs.Counter

	// Serving observability (DESIGN.md §12). flight is nil when request
	// tracing is disabled; every recording site is nil-safe, so the
	// disabled path costs nil checks only.
	flight     *obs.FlightRecorder
	reqSeq     atomic.Uint64
	inflight   *obs.Counter // gauge: requests currently in flight
	encodeErrs *obs.Counter // serve/errors/encode
	slowCount  *obs.Counter
	routes     []*routeObs // per-route rolling windows; fixed after New
	encodeOnce sync.Map    // route → *sync.Once, first-encode-error log
	slowRing   slowRing
}

// routeObs is one route's sliding latency window and the SLO gauges
// published from it at scrape time.
type routeObs struct {
	name     string
	window   *obs.RollingWindow
	p50, p99 *obs.Counter
}

// tracing reports whether requests carry span trees: either retention
// surface (flight recorder, slow-query log) wants them.
func (s *Server) tracing() bool {
	return s.flight != nil || s.conf.SlowQuery > 0
}

// New builds a Server from conf.
func New(conf Config) *Server {
	if conf.MaxPrograms <= 0 {
		conf.MaxPrograms = DefaultMaxPrograms
	}
	if conf.MaxAnalyses <= 0 {
		conf.MaxAnalyses = DefaultMaxAnalyses
	}
	m := conf.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	s := &Server{
		conf:       conf,
		metrics:    m,
		progLoads:  m.Counter("serve/program_loads"),
		progHits:   m.Counter("serve/program_cache_hits"),
		progMisses: m.Counter("serve/program_cache_misses"),
		progEvicts: m.Counter("serve/program_cache_evictions"),
		anaHits:    m.Counter("serve/analysis_cache_hits"),
		anaMisses:  m.Counter("serve/analysis_cache_misses"),
		anaEvicts:  m.Counter("serve/analysis_cache_evictions"),
		inflight:   m.Gauge("serve/inflight"),
		encodeErrs: m.Counter("serve/errors/encode"),
		slowCount:  m.UnstableCounter("serve/slow_queries"),
	}
	if conf.FlightRecorder > 0 {
		s.flight = obs.NewFlightRecorder(conf.FlightRecorder)
	}
	s.programs = newLRU(conf.MaxPrograms, func(string, any) { s.progEvicts.Add(1) })
	// An in-flight entry can be evicted under churn; its waiters hold
	// the entry directly, so eviction only forgets the cache slot — the
	// compute is cancelled by lifecycle (last waiter), never by LRU.
	s.analyses = newLRU(conf.MaxAnalyses, func(string, any) { s.anaEvicts.Add(1) })
	s.mux = http.NewServeMux()
	s.route("POST /v1/programs", "programs", s.handleLoad)
	s.route("POST /v1/summary", "summary", s.handleSummary)
	s.route("POST /v1/liveness", "liveness", s.handleLiveness)
	s.route("POST /v1/callsite", "callsite", s.handleCallSite)
	s.route("POST /v1/callgraph", "callgraph", s.handleCallGraph)
	s.route("POST /v1/analyze", "analyze", s.handleAnalyze)
	s.route("POST /v1/batch", "batch", s.handleBatch)
	s.route("POST /v1/patch", "patch", s.handlePatch)
	s.route("POST /v1/optimize", "optimize", s.handleOptimize)
	s.route("POST /v1/snapshot", "snapshot", s.handleSnapshot)
	s.route("GET /healthz", "healthz", s.handleHealth)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /debug/trace", "debug_trace", s.handleDebugTrace)
	s.route("GET /debug/slowlog", "debug_slowlog", s.handleDebugSlowlog)
	if conf.Pprof {
		mountPprof(s.mux)
	}
	return s
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the daemon's metrics registry.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// ListenAndServe serves on conf.Addr until ctx is cancelled, then
// shuts down gracefully. ready, when non-nil, receives the bound
// address once the listener is up (for ephemeral ports).
func (s *Server) ListenAndServe(ctx context.Context, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", s.conf.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to five seconds.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:     s.mux,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	case err := <-errc:
		return err
	}
}

// route installs one endpoint: handlers return (status, document); the
// wrapper writes JSON and records the request count and latency under
// the endpoint's name. When request tracing is on (Config.FlightRecorder
// or Config.SlowQuery), the wrapper also opens the request's span tree,
// threads it through the handler's context, and retains it when the
// request completes; when tracing is off, rt stays nil and every
// recording site below reduces to a nil check.
func (s *Server) route(pattern, name string, h func(r *http.Request) (int, any)) {
	reqs := s.metrics.Counter("serve/requests/" + name)
	lat := s.metrics.Histogram("serve/latency_us/" + name)
	ro := &routeObs{
		name:   name,
		window: obs.NewRollingWindow(sloWindowSlices, sloWindowSlice),
		p50:    s.metrics.Gauge("serve/p50_us/" + name),
		p99:    s.metrics.Gauge("serve/p99_us/" + name),
	}
	s.routes = append(s.routes, ro)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Add(1)
		s.inflight.Add(1)
		var rt *obs.RequestTrace
		if s.tracing() {
			rt = obs.NewRequestTrace(s.reqSeq.Add(1), name)
			r = r.WithContext(obs.ContextWithTrace(r.Context(), rt))
		}
		status, body := h(r)
		s.writeJSON(w, name, status, body)
		us := uint64(time.Since(start).Microseconds())
		lat.Observe(us)
		ro.window.Observe(us)
		s.inflight.Sub(1)
		rt.Finish(status)
		s.flight.Record(rt)
		if rt != nil && s.conf.SlowQuery > 0 && rt.Duration() >= s.conf.SlowQuery {
			s.recordSlow(rt)
		}
	})
}

// rawResponse lets a handler bypass the JSON encoding: the route
// wrapper writes the bytes with the given content type verbatim, so
// non-JSON surfaces (Prometheus text, Chrome trace dumps) and cached
// encoded documents still get per-route counters and latency.
type rawResponse struct {
	contentType string
	data        []byte
}

// docResponse is a response carrying an analysis document, which
// api.AppendDoc writes straight from the entry's analysis rather than
// have it built and marshaled: the bare document stamped with schema
// when head is nil, otherwise head's fields followed by the document as
// the envelope's last field, "analysis".
//
// An entry installed by /v1/patch or /v1/optimize holds the analysis
// that request derived, so its documents' iteration, timing and metrics
// fields describe that run; the summaries and PSG counts equal a
// from-scratch analysis either way. A spike.v1 document never carries
// the incremental block.
type docResponse struct {
	head   any
	schema string
	ent    *analysisEntry
}

func (s *Server) writeJSON(w http.ResponseWriter, route string, status int, v any) {
	contentType, data := "application/json", []byte(nil)
	if raw, ok := v.(rawResponse); ok {
		contentType, data = raw.contentType, raw.data
	} else if enc, err := encodeJSON(v); err == nil {
		data = enc
	} else {
		status, data = http.StatusInternalServerError, s.encodeFailed(route, err)
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	w.Write(data)
}

// encodeJSON encodes a response body as json.MarshalIndent(v, "", "  ")
// does, plus a newline, without its scanner-driven indent pass; a
// docResponse is encoded as the api value it stands for.
func encodeJSON(v any) ([]byte, error) {
	d, isDoc := v.(docResponse)
	if !isDoc {
		data, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		// The spare byte takes the newline.
		return append(api.AppendIndent(make([]byte, 0, 2*len(data)+1), data, 0), '\n'), nil
	}
	var dst []byte
	depth := 0
	if d.head != nil {
		data, err := json.Marshal(d.head)
		if err != nil {
			return nil, err
		}
		// Indent the envelope up to its closing brace, then add the
		// document as its last field, one level deep.
		dst = api.AppendIndent(make([]byte, 0, 2*len(data)), data[:len(data)-1], 0)
		dst = append(dst, ",\n  \"analysis\": "...)
		depth = 1
	}
	dst, err := api.AppendDoc(dst, d.schema, d.ent.a, d.ent.metrics, nil, depth)
	if err != nil {
		return nil, err
	}
	if d.head != nil {
		dst = append(dst, "\n}"...)
	}
	return append(dst, '\n'), nil
}

// encodeFailed handles a response that could not be encoded, a server
// bug: it counts it, logs the first occurrence per route (every
// occurrence after the first is the same bug), and returns the
// well-formed 500 reply that replaces it.
func (s *Server) encodeFailed(route string, err error) []byte {
	s.encodeErrs.Add(1)
	once, _ := s.encodeOnce.LoadOrStore(route, new(sync.Once))
	once.(*sync.Once).Do(func() {
		log.Printf("serve: %s: response encode failed: %v", route, err)
	})
	return []byte(fmt.Sprintf("{\"schema_version\":%q,\"error\":\"encode: %s\"}\n",
		api.SchemaVersion, err))
}

// errResp builds an error reply stamped spike.v1 (the v1 endpoints);
// errRespV stamps an explicit schema version (the v2 endpoints).
func errResp(status int, format string, args ...any) (int, any) {
	return errRespV(api.SchemaVersion, status, format, args...)
}

func errRespV(schema string, status int, format string, args ...any) (int, any) {
	return status, api.ErrorResponse{
		SchemaVersion: schema,
		Error:         fmt.Sprintf(format, args...),
	}
}

// decodeBody decodes a JSON request body into v. Unknown fields are
// tolerated: the versioning policy lets newer clients send additive
// fields to older daemons.
func decodeBody(r *http.Request, v any) error {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	return json.NewDecoder(body).Decode(v)
}

// decodeLoad decodes a /v1/programs body into req as decodeBody would.
// A body whose declared Content-Length fits maxBodyBytes is read whole
// first, and when it is exactly what json.Marshal writes for a
// LoadRequest carrying only an image — {"sxe":"…"}, perhaps newline
// terminated — its base64 is decoded straight from the buffer, sparing
// the JSON scanner's passes over the string. Any other body, a short
// read or a base64 error replays the bytes read, then the read's error,
// into decodeBody's json.Decoder, so statuses and error texts are
// decodeBody's.
func decodeLoad(r *http.Request, req *api.LoadRequest) error {
	if r.ContentLength < 0 || r.ContentLength > maxBodyBytes {
		return decodeBody(r, req)
	}
	buf, err := readDeclared(r.Body, int(r.ContentLength))
	if len(buf) == int(r.ContentLength) {
		if b64, ok := bareImage(buf); ok {
			img := make([]byte, base64.StdEncoding.DecodedLen(len(b64)))
			if n, err := base64.StdEncoding.Decode(img, b64); err == nil {
				req.SXE = img[:n]
				return nil
			}
		}
	}
	var body io.Reader = bytes.NewReader(buf)
	if err != nil && err != io.EOF {
		body = io.MultiReader(body, errReader{err})
	}
	return json.NewDecoder(body).Decode(req)
}

// readDeclared reads up to n bytes of body into one buffer and returns
// them with the error that ended the read, if any (io.EOF included; an
// error may come with the last byte). The buffer grows with the bytes
// that arrive, from at most 1 MiB, so a client that declares a large
// body and sends little holds little memory.
func readDeclared(body io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, 1<<20))
	var err error
	for len(buf) < n && err == nil {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		var k int
		k, err = body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
	}
	return buf, err
}

// bareImage returns the string of a body that holds exactly
// {"sxe":"…"}, perhaps newline terminated, with no quote, backslash, CR
// or LF inside the string. The base64 decoder skips CR and LF, which
// JSON refuses raw; once it accepts the rest, every byte was in the
// base64 alphabet, which JSON reads verbatim, so the image is the one
// json.Decoder would give.
func bareImage(body []byte) ([]byte, bool) {
	body = bytes.TrimSuffix(body, []byte("\n"))
	s, ok := bytes.CutPrefix(body, []byte(`{"sxe":"`))
	if !ok {
		return nil, false
	}
	if s, ok = bytes.CutSuffix(s, []byte(`"}`)); !ok {
		return nil, false
	}
	for _, c := range []byte("\"\\\r\n") {
		if bytes.IndexByte(s, c) >= 0 {
			return nil, false
		}
	}
	return s, true
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeError is the reply, stamped with the route's schema, to a body
// decodeBody rejected: 413 when it exceeds maxBodyBytes, 400 otherwise.
func decodeError(schema string, err error) (int, any) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	return errRespV(schema, status, "decode: %v", err)
}

// load resolves a LoadRequest into a registered program. The identity
// is the hash of the canonical encoding, so the same program loaded as
// assembly, raw image or path lands on the same cache slot. An SXE image
// already in canonical form is kept as the program's image byte for
// byte; any other image, and assembly, is encoded.
func (s *Server) load(req *api.LoadRequest) (*loadedProgram, error) {
	sources := 0
	for _, set := range []bool{req.Path != "", req.Asm != "", len(req.SXE) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of path, asm, sxe must be set (got %d)", sources)
	}
	var (
		p   *prog.Program
		img *sxe.Image
		err error
	)
	switch {
	case req.Path != "":
		var data []byte
		data, err = os.ReadFile(req.Path)
		if err != nil {
			return nil, err
		}
		if len(data) >= len(sxe.Magic) && bytes.Equal(data[:len(sxe.Magic)], sxe.Magic[:]) {
			p, img, err = sxe.DecodeImage(data)
		} else {
			p, err = prog.Assemble(string(data))
		}
	case req.Asm != "":
		p, err = prog.Assemble(req.Asm)
	default:
		p, img, err = sxe.DecodeImage(req.SXE)
	}
	if err == nil && img == nil {
		img, err = sxe.EncodeImage(p)
	}
	if err != nil {
		return nil, err
	}
	info := api.ProgramInfoOf(p, img.Bytes)
	lp := &loadedProgram{id: info.ID, prog: p, info: info, img: img}
	s.programs.add(lp.id, lp)
	s.progLoads.Add(1)
	return lp, nil
}

// program resolves a program ID against the registry.
func (s *Server) program(id string) (*loadedProgram, error) {
	v, ok := s.programs.get(id)
	if !ok {
		s.progMisses.Add(1)
		return nil, fmt.Errorf("unknown program %q (load it via POST /v1/programs)", id)
	}
	s.progHits.Add(1)
	return v.(*loadedProgram), nil
}

// analysisKey indexes the analysis cache by program identity and
// option set: one entry per analysis, whichever route computed or
// installed it. The wire schema is not part of the key; an entry
// renders a document per schema on demand (analysisEntry.doc).
func analysisKey(id string, o api.Options) string {
	return id + "|" + o.Key()
}

// analysis returns the converged analysis of (program, options),
// computing it at most once per key. It blocks until the analysis is
// ready or ctx is cancelled; when the last waiting request abandons an
// in-flight compute, the compute is cancelled and its cache slot
// dropped.
func (s *Server) analysis(ctx context.Context, lp *loadedProgram, o api.Options) (*analysisEntry, error) {
	key := analysisKey(lp.id, o)
	rt := obs.TraceFrom(ctx)
	rt.SetContext(lp.id, o.Key())
	for {
		v, created := s.analyses.getOrCreate(key, func() any { return newAnalysisEntry() })
		ent := v.(*analysisEntry)
		// The request's span tree attributes the cache outcome: the
		// creator records "cache miss" and hands its tree to the compute
		// goroutine, whose analysis opens the "analyze" span under the
		// root (and closes it when the analysis converges, even if this
		// request abandons); a request that finds a finished entry
		// records "cache hit"; one that joins an in-flight compute
		// records the time spent in "singleflight wait".
		var waitSpan obs.Span
		if created {
			s.anaMisses.Add(1)
			rt.Tracer().Begin("cache miss").End()
			cctx, cancel := context.WithCancel(context.Background())
			ent.cancel = cancel
			go ent.compute(cctx, lp.prog, o, s.conf.Parallelism, rt.Tracer())
		} else {
			s.anaHits.Add(1)
			if ent.ready() {
				rt.Tracer().Begin("cache hit").End()
			} else {
				waitSpan = rt.Tracer().Begin("singleflight wait")
			}
		}
		abandoned, err := ent.wait(ctx)
		waitSpan.End()
		if err == nil {
			return ent, nil
		}
		// Both drops below compare before deleting: a patch, optimize or
		// snapshot load may have installed a finished entry under this
		// key since ent was created, and that one stays.
		if ctx.Err() != nil {
			if abandoned {
				s.analyses.compareAndRemove(key, ent)
			}
			return nil, ctx.Err()
		}
		// The compute itself failed: drop the poisoned slot. A
		// cancelled compute (we raced another request's abandonment)
		// is retryable under our still-live context; a genuine
		// analysis error is not.
		s.analyses.compareAndRemove(key, ent)
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
}

// routineIndex resolves a routine name within a loaded program.
func (lp *loadedProgram) routineIndex(name string) (int, error) {
	ri, ok := lp.prog.Index(name)
	if !ok {
		return 0, fmt.Errorf("program %s has no routine %q", lp.id, name)
	}
	return ri, nil
}

// batchWorkers bounds the batch fan-out.
func (s *Server) batchWorkers() int { return par.Workers(s.conf.Parallelism) }

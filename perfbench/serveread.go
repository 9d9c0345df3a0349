package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// The serve-read phase is the daemon's steady-state traffic: an open
// loop of summary, liveness and callsite point queries on uniformly
// drawn routines, plus a small share of 32-query batches, at one fixed
// rate well below saturation. Each request is timed from its due time.
// It exercises request decode, cache hit, api render and the
// per-routine liveness memo, and bypasses analysis, Reanalyze and opt.

const (
	readWorkersTrack = 10 // tracks 10 and 11: the two client connections
	batchSize        = 32
)

// Query mix: cumulative shares of summary, liveness and callsite; the
// rest are batches. No record of real traffic exists to draw the mix
// from, so it is an assumption, the simplest one: the three point kinds
// in equal shares, and one request in twenty a batch, a small share
// chosen without data.
const batchShare = 0.05

var readMix = [3]float64{(1 - batchShare) / 3, 2 * (1 - batchShare) / 3, 1 - batchShare}

type readProgram struct {
	id    string
	img   []byte
	a     *core.Analysis // the benchmark's own analysis, for expected answers; dropped once they are recorded
	calls [][2]int       // (routine, instr) of every call site
	// withCalls lists routines holding at least one call site, each
	// with the index of its first entry in calls.
	withCalls [][2]int
}

// readReq is one scheduled request and the answer recorded for it
// before timing.
type readReq struct {
	due    time.Duration
	kind   string // summary, liveness, callsite or batch
	route  string
	body   []byte
	expect []byte // JSON of the expected payload
	prog   int
	ri     int
}

type readState struct {
	d     *daemon
	progs []*readProgram
	sched []readReq
}

func (r *run) readSetup(traced bool) func() (*readState, error) {
	return func() (*readState, error) {
		st := &readState{}
		for i, name := range r.cfg.readProfiles {
			prof, ok := progen.ProfileByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown profile %q", name)
			}
			p := progen.Generate(prof.Scale(r.cfg.readScale), progen.DefaultOptions(derive(r.cfg.seed, "read", i)))
			img, err := sxe.Encode(p)
			if err != nil {
				return nil, err
			}
			a, err := core.Analyze(p, core.WithConfig(core.DefaultConfig()))
			if err != nil {
				return nil, err
			}
			rp := &readProgram{img: img, a: a}
			for ri, rt := range p.Routines {
				first := len(rp.calls)
				for k := range rt.Code {
					if rt.Code[k].Op == isa.OpJsr || rt.Code[k].Op == isa.OpJsrInd {
						rp.calls = append(rp.calls, [2]int{ri, k})
					}
				}
				if len(rp.calls) > first {
					rp.withCalls = append(rp.withCalls, [2]int{ri, first})
				}
			}
			st.progs = append(st.progs, rp)
		}
		d, err := startDaemon(r.cfg.maxPrograms, traced)
		if err != nil {
			return nil, err
		}
		st.d = d
		for _, rp := range st.progs {
			if rp.id, err = d.load(rp.img); err != nil {
				d.stop()
				return nil, err
			}
			if rp.id != api.ProgramID(rp.img) {
				d.stop()
				return nil, fmt.Errorf("daemon identified a program as %s, want %s", rp.id, api.ProgramID(rp.img))
			}
			// Warm the analysis cache: the window measures serving, not
			// analysis.
			var cg api.CallGraphResponse
			if err := d.call("/v1/callgraph", api.CallGraphRequest{Program: rp.id}, &cg); err != nil {
				d.stop()
				return nil, err
			}
		}
		if st.sched, err = r.readSchedule(st.progs); err != nil {
			d.stop()
			return nil, err
		}
		// The answers are recorded: drop the benchmark's own analyses,
		// so that the window's peak memory is the daemon's.
		for _, rp := range st.progs {
			rp.a = nil
		}
		return st, nil
	}
}

func fingerprintRead(st *readState) string {
	var b bytes.Buffer
	for _, rp := range st.progs {
		b.WriteString(rp.id)
	}
	for _, q := range st.sched {
		fmt.Fprintf(&b, "%d%s", q.due, q.body)
	}
	return b.String()
}

// readSchedule draws the Poisson arrival schedule, the query kinds and
// the routine picks from the seed, and records every answer before
// timing from the benchmark's own analyses.
func (r *run) readSchedule(progs []*readProgram) ([]readReq, error) {
	rng := newRand(r.cfg.seed, "read-schedule", 0)
	dur := r.readDuration()
	var sched []readReq
	t := 0.0
	for {
		t += rng.ExpFloat64() / r.cfg.readRate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		pi := rng.IntN(len(progs))
		rp := progs[pi]
		u := rng.Float64()
		q := readReq{due: due, prog: pi}
		pick := func(kind string) (api.Query, any, error) {
			a := rp.a
			switch kind {
			case "summary":
				ri := rng.IntN(len(a.Prog.Routines))
				q.ri = ri
				return api.Query{Kind: kind, Routine: a.Prog.Routines[ri].Name}, api.SummaryOf(a, ri), nil
			case "liveness":
				ri := rng.IntN(len(a.Prog.Routines))
				q.ri = ri
				instr := rng.IntN(len(a.Prog.Routines[ri].Code))
				pt, err := api.LivenessPointOf(a, ri, instr)
				return api.Query{Kind: kind, Routine: a.Prog.Routines[ri].Name, Instr: instr}, pt, err
			default:
				w := rp.withCalls[rng.IntN(len(rp.withCalls))]
				n := 0
				for k := w[1]; k < len(rp.calls) && rp.calls[k][0] == w[0]; k++ {
					n++
				}
				c := rp.calls[w[1]+rng.IntN(n)]
				q.ri = c[0]
				eff, err := api.CallSiteEffectOf(a, c[0], c[1])
				return api.Query{Kind: "callsite", Routine: a.Prog.Routines[c[0]].Name, Instr: c[1]}, eff, err
			}
		}
		var req, expect any
		var err error
		switch {
		case u < readMix[0]:
			q.kind, q.route = "summary", "/v1/summary"
			var qq api.Query
			qq, expect, err = pick("summary")
			req = api.SummaryRequest{Program: rp.id, Routine: qq.Routine}
		case u < readMix[1]:
			q.kind, q.route = "liveness", "/v1/liveness"
			var qq api.Query
			qq, expect, err = pick("liveness")
			req = api.LivenessRequest{Program: rp.id, Routine: qq.Routine, Instr: qq.Instr}
		case u < readMix[2]:
			q.kind, q.route = "callsite", "/v1/callsite"
			var qq api.Query
			qq, expect, err = pick("callsite")
			req = api.CallSiteRequest{Program: rp.id, Routine: qq.Routine, Instr: qq.Instr}
		default:
			q.kind, q.route = "batch", "/v1/batch"
			br := api.BatchRequest{Program: rp.id}
			var results []api.QueryResult
			for k := 0; k < batchSize && err == nil; k++ {
				var qq api.Query
				var ans any
				qq, ans, err = pick([]string{"summary", "liveness", "callsite"}[rng.IntN(3)])
				br.Queries = append(br.Queries, qq)
				res := api.QueryResult{Kind: qq.Kind}
				switch v := ans.(type) {
				case api.RoutineSummary:
					res.Summary = &v
				case api.LivenessPoint:
					res.Liveness = &v
				case api.CallSiteEffect:
					res.CallSite = &v
				}
				results = append(results, res)
			}
			req, expect = br, results
		}
		if err != nil {
			return nil, err
		}
		if q.body, err = json.Marshal(req); err != nil {
			return nil, err
		}
		if q.expect, err = json.Marshal(expect); err != nil {
			return nil, err
		}
		sched = append(sched, q)
	}
	return sched, nil
}

// readOutcome is one request's measurement.
type readOutcome struct {
	late, queue, rtt, latency time.Duration
	bytes                     int
	body                      []byte
	err                       error
}

func (r *run) serveRead() error {
	var untracedP50 float64
	return r.passes(func(traced bool) error {
		st, err := timeSetup(r, "serve-read", r.readSetup(traced), fingerprintRead, func(st *readState) { st.d.stop() })
		if err != nil {
			return err
		}
		defer st.d.stop()
		c0, err := st.d.counters()
		if err != nil {
			return err
		}
		var rec0 int
		if traced {
			if rec0, err = st.d.recorded(); err != nil {
				return err
			}
		}
		settle()
		pause0 := gcPauseNs()
		sampler := startPeakSampler()
		outs, start, elapsed := r.readWindow(st)
		peak := sampler.take()
		sampler.close()
		pause := gcPauseNs() - pause0
		c1, err := st.d.counters()
		if err != nil {
			return err
		}

		// Checks, outside the window: every body must equal the answer
		// recorded before timing.
		var query, batch timing
		perRoute := map[string]*timing{}
		var late timing
		var respBytes float64
		for i, q := range st.sched {
			o := &outs[i]
			r.attempted++
			late.add(o.late)
			if o.err == nil {
				o.err = checkReadAnswer(q, o.body, st.progs[q.prog].id)
			}
			if o.err != nil {
				r.fail("serve-read %s #%d: %v", q.kind, i, o.err)
				continue
			}
			if q.kind == "batch" {
				batch.add(o.latency)
			} else {
				query.add(o.latency)
			}
			if perRoute[q.kind] == nil {
				perRoute[q.kind] = &timing{}
			}
			perRoute[q.kind].add(o.rtt)
			respBytes += float64(o.bytes)
		}
		offered := float64(len(st.sched)) / r.readDuration().Seconds()
		completed := float64(len(st.sched)) / elapsed.Seconds()
		latePct := late.pct(99)
		if completed < 0.97*offered || late.median() > 2 {
			// The generator fell behind: it could not keep the schedule,
			// so the run is invalid rather than reported. A stall that
			// delays it now and then is not falling behind; the requests
			// it delays are timed from their due times.
			r.fail("serve-read: generator fell behind (offered %.1f req/s, completed %.1f req/s, lateness p50 %.3f ms)", offered, completed, late.median())
		}
		if !query.supports(99) {
			r.fail("serve-read: %d point queries do not support a p99", query.n())
		}
		r.record["serve-read"] = map[string]any{
			"query": query.summary(), "batch": batch.summary(), "lateness": late.summary(),
			"offered_qps": offered, "completed_qps": completed, "window_s": elapsed.Seconds(),
		}
		if !traced {
			untracedP50 = query.median()
			r.e2e["query_p50_ms"] = query.median()
			r.layers["query_p99_ms"] = query.chunkedPct(99)
			r.e2e["peak_mb"] = max(r.e2e["peak_mb"], peak)
			return nil
		}

		l := r.layers
		l["loadgen.late_p50_ms"] = late.median()
		l["loadgen.late_p99_ms"] = latePct
		l["loadgen.offered_qps"] = offered
		l["loadgen.completed_qps"] = completed
		for _, k := range []string{"summary", "liveness", "callsite", "batch"} {
			v := 0.0
			if t := perRoute[k]; t != nil {
				v = t.median()
			}
			l["serve."+k+"_p50_ms"] = v
		}
		l["serve.response_kb"] = respBytes / 1024 / float64(len(st.sched))
		l["serve.analysis_hit_ratio"] = ratio(c1, c0, "serve/analysis_cache_hits", "serve/analysis_cache_misses")
		l["serve.program_hit_ratio"] = ratio(c1, c0, "serve/program_cache_hits", "serve/program_cache_misses")
		l["serve.analysis_evictions"] = float64(c1["serve/analysis_cache_evictions"] - c0["serve/analysis_cache_evictions"])
		l["serve.program_evictions"] = float64(c1["serve/program_cache_evictions"] - c0["serve/program_cache_evictions"])
		l["runtime.gc_pause_ms"] = float64(pause) / 1e6
		l["trace.serve_read_overhead_pct"] = 100 * (query.median() - untracedP50) / untracedP50
		if l["dataflow.liveness_ms"], err = r.livenessSolve(st); err != nil {
			return err
		}
		return r.readTrace(st, outs, start, rec0)
	})
}

// readDuration is the schedule's length: the phase's share of
// --seconds, lengthened to hold minQueries at the rate.
func (r *run) readDuration() time.Duration {
	dur := r.budget(shareRead)
	if min := time.Duration(float64(r.cfg.minQueries) / r.cfg.readRate * float64(time.Second)); dur < min {
		dur = min
	}
	return dur
}

func ratio(now, before map[string]uint64, hits, misses string) float64 {
	h := float64(now[hits] - before[hits])
	m := float64(now[misses] - before[misses])
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// readWindow replays the schedule: a generator goroutine releases each
// request at its due time to two client workers, one per connection.
func (r *run) readWindow(st *readState) ([]readOutcome, time.Time, time.Duration) {
	outs := make([]readOutcome, len(st.sched))
	// Sized to the schedule so the generator never blocks: requests
	// the two connections cannot take yet wait here, and that wait
	// counts in their latency.
	queue := make(chan int, len(st.sched))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r.rec.track(tid, fmt.Sprintf("serve-read connection %d", tid-readWorkersTrack))
			for i := range queue {
				q := &st.sched[i]
				o := &outs[i]
				due := start.Add(q.due)
				sent := time.Now()
				o.queue = sent.Sub(due)
				resp, err := st.d.hc.Post(st.d.base+q.route, "application/json", bytes.NewReader(q.body))
				if err == nil {
					o.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(o.body))
					}
				}
				done := time.Now()
				o.rtt, o.latency, o.bytes, o.err = done.Sub(sent), done.Sub(due), len(o.body), err
				root := r.rec.add(tid, noSpan, "serve-read."+q.kind, due, o.latency)
				r.rec.add(tid, root, "loadgen.queue", due, o.queue)
				r.rec.add(tid, root, "http.roundtrip", sent, o.rtt)
			}
		}(readWorkersTrack + w)
	}
	for i, q := range st.sched {
		due := start.Add(q.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs, start, time.Since(start)
}

// checkReadAnswer compares a response with the answer recorded before
// timing.
func checkReadAnswer(q readReq, body []byte, id string) error {
	var env struct {
		SchemaVersion string          `json:"schema_version"`
		Program       string          `json:"program"`
		Summary       json.RawMessage `json:"summary"`
		Point         json.RawMessage `json:"point"`
		CallSite      json.RawMessage `json:"call_site"`
		Results       json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if env.SchemaVersion != api.SchemaVersion || env.Program != id {
		return fmt.Errorf("answered schema %q program %q, want %q %q", env.SchemaVersion, env.Program, api.SchemaVersion, id)
	}
	var payload json.RawMessage
	var into any
	switch q.kind {
	case "summary":
		payload, into = env.Summary, new(api.RoutineSummary)
	case "liveness":
		payload, into = env.Point, new(api.LivenessPoint)
	case "callsite":
		payload, into = env.CallSite, new(api.CallSiteEffect)
	default:
		payload, into = env.Results, new([]api.QueryResult)
	}
	if err := json.Unmarshal(payload, into); err != nil {
		return fmt.Errorf("decode %s: %w", q.kind, err)
	}
	got, err := json.Marshal(into)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, q.expect) {
		return fmt.Errorf("answer differs from the one recorded before timing")
	}
	return nil
}

// livenessSolve times Analysis.SolveRoutineLiveness, on fresh analyses
// of the served programs, for every routine the window's liveness
// queries touched.
func (r *run) livenessSolve(st *readState) (float64, error) {
	as := make([]*core.Analysis, len(st.progs))
	for i, rp := range st.progs {
		p, err := sxe.Decode(rp.img)
		if err != nil {
			return 0, err
		}
		if as[i], err = core.Analyze(p, core.WithConfig(core.DefaultConfig())); err != nil {
			return 0, err
		}
	}
	seen := map[[2]int]bool{}
	var total time.Duration
	for _, q := range st.sched {
		if q.kind != "liveness" || seen[[2]int{q.prog, q.ri}] {
			continue
		}
		seen[[2]int{q.prog, q.ri}] = true
		t0 := time.Now()
		as[q.prog].SolveRoutineLiveness(q.ri)
		total += time.Since(t0)
	}
	if len(seen) == 0 {
		return 0, nil
	}
	return ms(total) / float64(len(seen)), nil
}

// readTrace splits the traced window's point queries into layers: the
// client's queue wait from its own spans; the daemon's route root, its
// cache spans and its self time from the flight recorder; and the
// transport, which nothing measures on its own, as the client's round
// trip minus the daemon's root. The split is by subtraction, so the
// layers add up to the query time by construction; only a negative
// transport would show the two clocks disagree.
func (r *run) readTrace(st *readState, outs []readOutcome, start time.Time, rec0 int) error {
	n := len(st.sched)
	traces, events, err := st.d.flight(rec0, rec0+1+n)
	if err != nil {
		return err
	}
	r.rec.addForeign(events, 2, start.Sub(r.rec.origin))
	var rootMs, selfMs, cacheMs float64
	var count int
	for _, t := range traces {
		if t.route != "summary" && t.route != "liveness" && t.route != "callsite" {
			continue
		}
		self, cache := t.self("cache hit", "cache miss", "singleflight wait")
		rootMs += t.spans[0].dur / 1e3
		selfMs += self
		cacheMs += cache
		count++
	}
	var queue, rtt float64
	var nq int
	for i, q := range st.sched {
		if q.kind == "batch" || outs[i].err != nil {
			continue
		}
		queue += ms(outs[i].queue)
		rtt += ms(outs[i].rtt)
		nq++
	}
	if count == 0 || nq == 0 {
		return fmt.Errorf("serve-read trace: no point queries recorded")
	}
	// Per-query means: the flight recorder and the client saw the same
	// point queries, in numbers that must agree.
	if count != nq {
		r.fail("serve-read trace: flight recorder holds %d point queries, client sent %d", count, nq)
	}
	mean := func(x float64, k int) float64 { return x / float64(k) }
	r.layers["serve.self_ms"] = mean(selfMs, count)
	r.layers["serve.cache_ms"] = mean(cacheMs, count)
	r.layers["loadgen.queue_ms"] = mean(queue, nq)
	transport := mean(rtt, nq) - mean(rootMs, count)
	r.layers["http.transport_ms"] = transport
	if transport < 0 {
		r.fail("serve-read trace: the daemon's route spans (%.3f ms) outlast the client's round trips (%.3f ms)", mean(rootMs, count), mean(rtt, nq))
	}
	return nil
}

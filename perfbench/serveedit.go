package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// The serve-edit phase is the write path: a closed loop with one
// editor client owning editPrograms programs of the same profile and
// editing them in turn (several programs, so a run's medians do not
// hang on one seed's program structure). Every iteration posts a
// /v1/patch with a fresh single-routine body edit on the latest version
// of a program — edits chain and never return to an earlier body —
// then reads the patched routine back on the new ID (summary, then
// liveness). Every coldEvery-th iteration instead uploads a never-seen
// program and sends its first query. It exercises patch decode,
// prog.AssembleRoutine, sxe.Encode, copy-mode core.Reanalyze,
// full-document render, cache installs and evictions, first-touch
// liveness and cold loads.
//
// Each request is timed on the wall clock and on the process's CPU
// clock (all threads). With one client nothing else runs while a
// request is served, so the CPU time is that request's own: the work
// the daemon and the client spend on it, without the time the host
// gives to other guests. These requests take tens of milliseconds, long
// enough for their wall times to soak up a burst of steal in full (see
// README.md, Aggregation), so the end-to-end serve-edit metrics are CPU
// times and the record keeps the wall times beside them.

const editTrack = 20 // the editor client's track

// editChain is one program's chain of versions.
type editChain struct {
	num     int
	first   *prog.Program // the version the chain starts from
	firstID string
	cur     *prog.Program // the client's copy of the latest version
	id      string
	rng     *rand.Rand
	fp      uint64 // fingerprint of cur's routine bodies
	seen    map[uint64]bool
	patches []*patchSample
}

// patchSample is one patch and its reads. The version it made is
// rebuilt from the chain's base and the bodies when checked, so that
// only the daemon's memory grows during the window.
type patchSample struct {
	ri, instr   int
	body        string // the patch's assembly for routine ri
	id          string
	inc         api.IncrementalInfo
	summary     []byte // the patch response's summary of the edited routine
	raw         []byte // the read-after-write summary answer
	liveness    []byte // the read-after-write liveness answer
	respBytes   int
	reloaded    bool      // the base had to be uploaded again first
	at          time.Time // when the patch was sent
	patch, read clocks
	err         error
}

type coldSample struct {
	k, ri, instr int
	id           string
	answer       []byte
	load, query  clocks
	err          error
}

// clocks is one request's wall time and the process CPU time spent
// while it ran.
type clocks struct{ wall, cpu time.Duration }

// startClocks starts timing a request; the returned function stops it.
func startClocks() func() clocks {
	w0, c0 := time.Now(), processCPU()
	return func() clocks { return clocks{time.Since(w0), processCPU() - c0} }
}

func (c clocks) plus(o clocks) clocks { return clocks{c.wall + o.wall, c.cpu + o.cpu} }

// editState is the daemon and its one editor client: the client's
// chains, the cold queries it sent, and the draws of their call sites.
type editState struct {
	d      *daemon
	chains []*editChain
	rng    *rand.Rand
	colds  []*coldSample
}

// bodyMix spreads one routine's body hash over the version
// fingerprint; a version's fingerprint is the sum over its routines.
func bodyMix(ri int, h uint64) uint64 {
	x := h ^ (uint64(ri) * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func fingerprint(p *prog.Program) uint64 {
	var fp uint64
	for ri, rt := range p.Routines {
		fp += bodyMix(ri, rt.Hash())
	}
	return fp
}

func (r *run) editProfile() (progen.Profile, error) {
	prof, ok := progen.ProfileByName(r.cfg.editProfile)
	if !ok {
		return prof, fmt.Errorf("unknown profile %q", r.cfg.editProfile)
	}
	return prof.Scale(r.cfg.editScale), nil
}

func (r *run) editSetup(traced bool) func() (*editState, error) {
	return func() (*editState, error) {
		prof, err := r.editProfile()
		if err != nil {
			return nil, err
		}
		st := &editState{rng: newRand(r.cfg.seed, "cold-picks", 0)}
		if st.d, err = startDaemon(r.cfg.maxPrograms, traced); err != nil {
			return nil, err
		}
		// Uploads first, then the warm-up patches: the uploaded bases
		// are then the least recently used programs, and the daemon's
		// program cache evicts them before any chain's latest version.
		for j := 0; j < r.cfg.editPrograms; j++ {
			ch, err := r.newEditChain(st.d, prof, j)
			if err != nil {
				st.d.stop()
				return nil, err
			}
			st.chains = append(st.chains, ch)
		}
		for _, ch := range st.chains {
			if err := ch.warm(st.d); err != nil {
				st.d.stop()
				return nil, err
			}
		}
		return st, nil
	}
}

// newEditChain generates and uploads program n.
func (r *run) newEditChain(d *daemon, prof progen.Profile, n int) (*editChain, error) {
	p := progen.Generate(prof, progen.DefaultOptions(derive(r.cfg.seed, "edit", n)))
	img, err := sxe.Encode(p)
	if err != nil {
		return nil, err
	}
	id, err := d.load(img)
	if err != nil {
		return nil, err
	}
	return &editChain{num: n, cur: p, id: id, rng: newRand(r.cfg.seed, "edit-chain", n)}, nil
}

// warm computes the spike.v2 analysis the chain's first edit starts
// from, with a patch that re-submits routine 0's body. The daemon
// names the reassembled program afresh, so that version is where the
// chain starts.
func (c *editChain) warm(d *daemon) error {
	body := routineBody(c.cur, 0)
	v, err := applyBody(c.cur, 0, body)
	if err != nil {
		return err
	}
	req := api.PatchRequest{Program: c.id, Routines: []api.RoutinePatch{{Routine: v.Routines[0].Name, Asm: body}}}
	var resp api.PatchResponse
	err = d.call("/v1/patch", req, &resp)
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusNotFound {
		// A program cache smaller than the chains evicted the upload.
		if err = reload(d, c); err == nil {
			err = d.call("/v1/patch", req, &resp)
		}
	}
	if err != nil {
		return err
	}
	c.first, c.cur, c.firstID, c.id = v, v, resp.Program.ID, resp.Program.ID
	c.fp = fingerprint(v)
	c.seen = map[uint64]bool{c.fp: true}
	return nil
}

// applyBody builds the version the daemon makes of cur when a patch
// replaces routine ri's body: clone-on-edit, the body reassembled
// against the program, address-taken-ness kept.
func applyBody(cur *prog.Program, ri int, body string) (*prog.Program, error) {
	v := cur.ShallowClone()
	nr, err := prog.AssembleRoutine(v, v.Routines[ri].Name, body)
	if err != nil {
		return nil, fmt.Errorf("reassemble %s: %w", v.Routines[ri].Name, err)
	}
	nr.AddressTaken = nr.AddressTaken || v.Routines[ri].AddressTaken
	v.Routines[ri] = nr
	v.RebuildIndex()
	return v, nil
}

func fingerprintEdit(st *editState) string {
	var b bytes.Buffer
	for _, ch := range st.chains {
		b.WriteString(ch.id)
	}
	return b.String()
}

func (r *run) serveEdit() error {
	var untracedP50 float64
	return r.passes(func(traced bool) error {
		st, err := timeSetup(r, "serve-edit", r.editSetup(traced), fingerprintEdit, func(st *editState) { st.d.stop() })
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
		pause0, alloc0 := gcPauseNs(), allocBytes()
		sampler := startPeakSampler()
		start := r.editWindow(st)
		peak := sampler.take()
		sampler.close()
		pause, alloc := gcPauseNs()-pause0, allocBytes()-alloc0
		c1, err := st.d.counters()
		if err != nil {
			return err
		}

		// The patches', read-after-writes' and cold queries' CPU and
		// wall times, and the cold uploads' wall times.
		var patch, read, cold, load, patchWall, readWall, coldWall timing
		var nPatch, nRequests, reloads int
		var incDirty, incResolved, respBytes float64
		all := st.patches()
		// In the order they were sent, for the chunked tail.
		sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
		for _, s := range all {
			r.attempted += 3 // the patch and its two reads
			nRequests += 3
			if s.err != nil {
				r.fail("serve-edit patch: %v", s.err)
				continue
			}
			nPatch++
			if s.reloaded {
				reloads++
			}
			patch.add(s.patch.cpu)
			read.add(s.read.cpu)
			patchWall.add(s.patch.wall)
			readWall.add(s.read.wall)
			incDirty += float64(s.inc.DirtyRoutines)
			incResolved += float64(s.inc.ResolvedComponents)
			respBytes += float64(s.respBytes)
		}
		for _, s := range st.colds {
			r.attempted += 2 // upload and first query
			nRequests += 2
			if s.err != nil {
				r.fail("serve-edit cold query: %v", s.err)
				continue
			}
			c := s.load.plus(s.query)
			cold.add(c.cpu)
			coldWall.add(c.wall)
			load.add(s.load.wall)
		}
		render := r.editCheck(st, traced)
		if !patch.supports(95) || !cold.supports(50) {
			r.fail("serve-edit: %d patches and %d cold queries do not support p95 and p50", patch.n(), cold.n())
		}
		r.record["serve-edit"] = map[string]any{"patch_cpu": patch.summary(), "read_after_write_cpu": read.summary(),
			"cold_query_cpu": cold.summary(), "patch_wall": patchWall.summary(), "read_after_write_wall": readWall.summary(),
			"cold_query_wall": coldWall.summary(), "load_wall": load.summary(), "reloads": reloads}
		if !traced {
			untracedP50 = patch.median()
			r.e2e["patch_p50_ms"] = patch.median()
			r.e2e["patch_p90_ms"] = patch.chunkedPct(90)
			r.e2e["read_after_write_p50_ms"] = read.median()
			r.e2e["cold_query_p50_ms"] = cold.median()
			r.e2e["peak_mb"] = max(r.e2e["peak_mb"], peak)
			return nil
		}
		l := r.layers
		l["serve.patch_response_kb"] = respBytes / 1024 / float64(nPatch)
		l["core.dirty_routines"] = incDirty / float64(nPatch)
		l["core.resolved_components"] = incResolved / float64(nPatch)
		l["serve.load_ms"] = load.median()
		l["api.render_ms"] = render
		l["serve.edit_analysis_hit_ratio"] = ratio(c1, c0, "serve/analysis_cache_hits", "serve/analysis_cache_misses")
		l["serve.edit_analysis_evictions"] = float64(c1["serve/analysis_cache_evictions"] - c0["serve/analysis_cache_evictions"])
		l["serve.edit_program_evictions"] = float64(c1["serve/program_cache_evictions"] - c0["serve/program_cache_evictions"])
		l["runtime.edit_gc_pause_ms"] = float64(pause) / 1e6
		l["runtime.alloc_mb_per_patch"] = float64(alloc) / (1 << 20) / float64(nPatch)
		l["trace.serve_edit_overhead_pct"] = 100 * (patch.median() - untracedP50) / untracedP50
		return r.editTrace(st, start, rec0, nRequests)
	})
}

// editWindow runs the editor client until the phase's share of
// --seconds is used and the percentiles have enough samples, or three
// times the share at most.
func (r *run) editWindow(st *editState) time.Time {
	budget := r.budget(shareEdit)
	r.rec.track(editTrack, "serve-edit client")
	var patches, edits int
	start := time.Now()
	for k := 0; ; k++ {
		el := time.Since(start)
		if el >= 3*budget || el >= budget && patches >= minPatches && len(st.colds) >= minCold {
			break
		}
		if (k+1)%coldEvery == 0 {
			st.colds = append(st.colds, r.coldQuery(st, k))
			continue
		}
		ch := st.chains[edits%len(st.chains)]
		edits++
		s := r.patchOnce(st.d, ch)
		ch.patches = append(ch.patches, s)
		if s.err != nil {
			break
		}
		patches++
	}
	return start
}

// patches returns the client's patches over all its chains.
func (st *editState) patches() []*patchSample {
	var out []*patchSample
	for _, ch := range st.chains {
		out = append(out, ch.patches...)
	}
	return out
}

// nextEdit draws a single-routine body edit of c.cur that yields a
// version the chain has not produced before, and returns the version
// as the daemon will build it from the patch body.
func (c *editChain) nextEdit() (*prog.Program, int, string, error) {
	for try := 0; try < 100; try++ {
		m, _ := progen.MutateKind(c.cur, c.rng.Uint64(), progen.MutBodyEdit)
		ri := -1
		for k := range m.Routines {
			if m.Routines[k] != c.cur.Routines[k] {
				ri = k
				break
			}
		}
		if ri < 0 {
			continue
		}
		body := routineBody(m, ri)
		v, err := applyBody(c.cur, ri, body)
		if err != nil {
			return nil, 0, "", err
		}
		fp := c.fp - bodyMix(ri, c.cur.Routines[ri].Hash()) + bodyMix(ri, v.Routines[ri].Hash())
		if c.seen[fp] {
			continue
		}
		c.seen[fp] = true
		c.fp = fp
		return v, ri, body, nil
	}
	return nil, 0, "", fmt.Errorf("no fresh edit in 100 draws")
}

func (r *run) patchOnce(d *daemon, c *editChain) *patchSample {
	v, ri, body, err := c.nextEdit()
	if err != nil {
		return &patchSample{err: err}
	}
	name := v.Routines[ri].Name
	s := &patchSample{ri: ri, body: body, instr: c.rng.IntN(len(v.Routines[ri].Code))}
	req, err := json.Marshal(api.PatchRequest{Program: c.id, Routines: []api.RoutinePatch{{Routine: name, Asm: body}}})
	if err != nil {
		s.err = err
		return s
	}
	s.at = time.Now()
	stop := startClocks()
	sp := r.rec.begin(editTrack, noSpan, "serve-edit.patch")
	data, err := d.post("/v1/patch", req)
	r.rec.end(sp)
	s.patch = stop()
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusNotFound {
		// The daemon's program cache, smaller than the chains, dropped
		// the chain's latest version; an editor uploads it again and
		// repeats the patch, which is what gets timed.
		if err = reload(d, c); err == nil {
			s.reloaded = true
			s.at = time.Now()
			stop = startClocks()
			sp = r.rec.begin(editTrack, noSpan, "serve-edit.patch")
			data, err = d.post("/v1/patch", req)
			r.rec.end(sp)
			s.patch = stop()
		}
	}
	if err != nil {
		s.err = err
		return s
	}
	s.respBytes = len(data)
	var resp struct {
		SchemaVersion string              `json:"schema_version"`
		Base          string              `json:"base"`
		Program       struct{ ID string } `json:"program"`
		Incremental   api.IncrementalInfo `json:"incremental"`
		Analysis      struct {
			Routines []json.RawMessage `json:"routines"`
		} `json:"analysis"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		s.err = fmt.Errorf("decode patch response: %w", err)
		return s
	}
	if resp.SchemaVersion != api.SchemaVersionV2 || resp.Base != c.id || ri >= len(resp.Analysis.Routines) {
		s.err = fmt.Errorf("patch response: schema %q base %q with %d routines", resp.SchemaVersion, resp.Base, len(resp.Analysis.Routines))
		return s
	}
	s.id, s.inc, s.summary = resp.Program.ID, resp.Incremental, resp.Analysis.Routines[ri]
	if s.id == c.id {
		s.err = fmt.Errorf("patch kept the base program's ID %s", c.id)
		return s
	}
	c.cur, c.id = v, s.id

	stop = startClocks()
	sp = r.rec.begin(editTrack, noSpan, "serve-edit.read_after_write")
	var sum api.SummaryResponse
	err = d.call("/v1/summary", api.SummaryRequest{Program: s.id, Routine: name}, &sum)
	r.rec.end(sp)
	s.read = stop()
	if err != nil {
		s.err = fmt.Errorf("read-after-write summary: %w", err)
		return s
	}
	sp = r.rec.begin(editTrack, noSpan, "serve-edit.liveness")
	var live api.LivenessResponse
	err = d.call("/v1/liveness", api.LivenessRequest{Program: s.id, Routine: name, Instr: s.instr}, &live)
	r.rec.end(sp)
	if err != nil {
		s.err = fmt.Errorf("read-after-write liveness: %w", err)
		return s
	}
	s.raw, _ = json.Marshal(sum.Summary)
	s.liveness, _ = json.Marshal(live.Point)
	return s
}

// reload uploads the chain's latest version again; it must come back
// under the same content-hash ID.
func reload(d *daemon, c *editChain) error {
	img, err := sxe.Encode(c.cur)
	if err != nil {
		return err
	}
	id, err := d.load(img)
	if err == nil && id != c.id {
		err = fmt.Errorf("reloaded version named %s, was %s", id, c.id)
	}
	return err
}

// coldProgram regenerates the never-seen program of iteration k.
func (r *run) coldProgram(k int) (*prog.Program, error) {
	prof, err := r.editProfile()
	if err != nil {
		return nil, err
	}
	return progen.Generate(prof, progen.DefaultOptions(derive(r.cfg.seed, "cold", k))), nil
}

func callSites(p *prog.Program) [][2]int {
	var out [][2]int
	for ri, rt := range p.Routines {
		for k := range rt.Code {
			if op := rt.Code[k].Op; op == isa.OpJsr || op == isa.OpJsrInd {
				out = append(out, [2]int{ri, k})
			}
		}
	}
	return out
}

func (r *run) coldQuery(st *editState, k int) *coldSample {
	s := &coldSample{k: k}
	p, err := r.coldProgram(k)
	if err != nil {
		s.err = err
		return s
	}
	img, err := sxe.Encode(p)
	if err != nil {
		s.err = err
		return s
	}
	sites := callSites(p)
	site := sites[st.rng.IntN(len(sites))]
	s.ri, s.instr = site[0], site[1]
	stop := startClocks()
	sp := r.rec.begin(editTrack, noSpan, "serve-edit.cold")
	s.id, err = st.d.load(img)
	s.load = stop()
	if err != nil {
		r.rec.end(sp)
		s.err = err
		return s
	}
	stop = startClocks()
	var resp api.CallSiteResponse
	err = st.d.call("/v1/callsite", api.CallSiteRequest{Program: s.id, Routine: p.Routines[s.ri].Name, Instr: s.instr}, &resp)
	r.rec.end(sp)
	s.query = stop()
	if err != nil {
		s.err = err
		return s
	}
	s.answer, s.err = json.Marshal(resp.CallSite)
	return s
}

// editCheck is serve-edit's correctness gate, outside the window:
// every patch response and read-after-write answer must equal the
// routine's summary (and liveness) from a from-scratch core.Analyze of
// that version, every version must carry its own content-hash ID, and
// each patch's dirty-routine and resolved-component counts must repeat
// exactly when the chain is replayed through core.Reanalyze. In a
// traced pass it also times api.BuildVersionedDoc plus encoding/json on
// the replayed analyses, returning the mean render time in ms.
func (r *run) editCheck(st *editState, traced bool) float64 {
	var render time.Duration
	var renders int
	ids := map[string]bool{}
	for _, c := range st.chains {
		ids[c.firstID] = true
		prev, err := core.Analyze(c.first, core.WithConfig(core.DefaultConfig()))
		if err != nil {
			r.fail("serve-edit chain %d: analyze base: %v", c.num, err)
			continue
		}
		var chain [][2]int
		cur := c.first
		for i, s := range c.patches {
			if s.err != nil {
				break
			}
			fail := func(format string, args ...any) {
				r.fail("serve-edit chain %d patch %d: %s", c.num, i, fmt.Sprintf(format, args...))
			}
			v, err := applyBody(cur, s.ri, s.body)
			if err != nil {
				fail("rebuild: %v", err)
				break
			}
			cur = v
			img, err := sxe.Encode(v)
			if err != nil {
				fail("encode: %v", err)
				break
			}
			if id := api.ProgramID(img); id != s.id {
				fail("daemon named the version %s, its content hash is %s", s.id, id)
			}
			if ids[s.id] {
				fail("version ID %s seen before", s.id)
			}
			ids[s.id] = true
			scratch, err := core.Analyze(v, core.WithConfig(core.DefaultConfig()))
			if err != nil {
				fail("analyze: %v", err)
				break
			}
			want, _ := json.Marshal(api.SummaryOf(scratch, s.ri))
			if !jsonEqual(s.summary, want) {
				fail("patch response summary differs from a from-scratch analysis")
			}
			if !bytes.Equal(s.raw, want) {
				fail("read-after-write summary differs from a from-scratch analysis")
			}
			pt, err := api.LivenessPointOf(scratch, s.ri, s.instr)
			if wantLive, _ := json.Marshal(pt); err != nil || !bytes.Equal(s.liveness, wantLive) {
				fail("read-after-write liveness differs from a from-scratch analysis")
			}
			m := obs.NewMetrics()
			inc, err := core.Reanalyze(prev, v, core.WithConfig(core.DefaultConfig()), core.WithMetrics(m))
			if err != nil {
				fail("replay: %v", err)
				break
			}
			if got := api.IncrementalInfoOf(inc.Incremental); got != s.inc {
				fail("replayed incremental counts %+v, daemon reported %+v", got, s.inc)
			}
			chain = append(chain, [2]int{s.inc.DirtyRoutines, s.inc.ResolvedComponents})
			if traced {
				t0 := time.Now()
				doc := api.BuildVersionedDoc(api.SchemaVersionV2, inc, m)
				if _, err := json.MarshalIndent(doc, "", "  "); err != nil {
					fail("render: %v", err)
				}
				render += time.Since(t0)
				renders++
			}
			prev = inc
		}
		r.exact.Edits[fmt.Sprint(c.num)] = chain
	}
	for _, s := range st.colds {
		if s.err != nil {
			continue
		}
		p, err := r.coldProgram(s.k)
		if err != nil {
			r.fail("serve-edit cold %d: %v", s.k, err)
			continue
		}
		img, _ := sxe.Encode(p)
		a, err := core.Analyze(p, core.WithConfig(core.DefaultConfig()))
		if err != nil {
			r.fail("serve-edit cold %d: analyze: %v", s.k, err)
			continue
		}
		eff, err := api.CallSiteEffectOf(a, s.ri, s.instr)
		want, _ := json.Marshal(eff)
		if err != nil || !bytes.Equal(s.answer, want) || s.id != api.ProgramID(img) {
			r.fail("serve-edit cold %d: first answer differs from a from-scratch analysis", s.k)
		}
	}
	if renders == 0 {
		return 0
	}
	return ms(render) / float64(renders)
}

// jsonEqual compares two JSON encodings of one value, ignoring layout.
func jsonEqual(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	ea, _ := json.Marshal(x)
	eb, _ := json.Marshal(y)
	return bytes.Equal(ea, eb)
}

// editTrace attributes the traced window from the flight recorder: the
// patch root's reanalyze span and the rest of the root, the analysis
// cache outcome of each read-after-write, and the cold queries'
// analyze spans. Transport is the client's round trip minus the patch
// root, by subtraction as in serve-read.
func (r *run) editTrace(st *editState, start time.Time, rec0, n int) error {
	traces, events, err := st.d.flight(rec0, rec0+1+n)
	if err != nil {
		return err
	}
	r.rec.addForeign(events, 3, start.Sub(r.rec.origin))
	var patchRoot, patchRe, patchSelf float64
	var nPatch, notFound, nRead, readHits, nCold int
	var readAnalyze, coldAnalyze float64
	for _, t := range traces {
		switch t.route {
		case "patch":
			re, ok := t.child("reanalyze")
			if !ok {
				// A patch on a version the program cache had dropped:
				// answered 404 before any work, then reloaded and repeated.
				notFound++
				continue
			}
			self, _ := t.self()
			patchRoot += t.spans[0].dur / 1e3
			patchRe += re
			patchSelf += self
			nPatch++
		case "summary": // the first read of a freshly patched version
			nRead++
			if _, hit := t.child("cache hit"); hit {
				readHits++
			}
			d, _ := t.child("analyze")
			readAnalyze += d
		case "callsite": // a never-seen program's first query
			d, _ := t.child("analyze")
			coldAnalyze += d
			nCold++
		}
	}
	var rtt float64
	var clientPatches, reloads int
	for _, s := range st.patches() {
		if s.err == nil {
			rtt += ms(s.patch.wall)
			clientPatches++
			if s.reloaded {
				reloads++
			}
		}
	}
	if nPatch == 0 || nPatch != clientPatches || notFound != reloads || nRead == 0 {
		return fmt.Errorf("serve-edit trace: flight recorder holds %d patches (%d answered not found) and %d reads, client sent %d patches (%d reloaded)",
			nPatch, notFound, nRead, clientPatches, reloads)
	}
	mean := func(x float64, k int) float64 {
		if k == 0 {
			return 0
		}
		return x / float64(k)
	}
	l := r.layers
	l["serve.patch_reanalyze_ms"] = mean(patchRe, nPatch)
	l["serve.patch_self_ms"] = mean(patchSelf, nPatch)
	transport := mean(rtt, clientPatches) - mean(patchRoot, nPatch)
	l["serve.patch_transport_ms"] = transport
	l["serve.read_after_write_hit_ratio"] = mean(float64(readHits), nRead)
	l["serve.read_after_write_analyze_ms"] = mean(readAnalyze, nRead)
	l["serve.cold_analyze_ms"] = mean(coldAnalyze, nCold)
	if transport < 0 {
		r.fail("serve-edit trace: the daemon's patch spans (%.3f ms) outlast the client's round trips (%.3f ms)", mean(patchRoot, nPatch), mean(rtt, clientPatches))
	}
	return nil
}

package serve

// Tests of the spike.v2 surface: the patch, optimize and snapshot
// endpoints, and the analysis cache entries they share with the v1
// point queries.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/snapshot"
	"repro/internal/sxe"
)

// patchedDouble gives double a use of its second argument, changing
// its summary (a1 stops being dead in main).
const patchedDouble = `
  add v0, a0, a0
  add v0, v0, a1
  ret
`

// mustPatch posts a single-routine patch and decodes the response.
func (c *testClient) mustPatch(id string, o api.Options, routine, asm string) api.PatchResponse {
	c.t.Helper()
	status, body := c.post("/v1/patch", api.PatchRequest{
		Program:  id,
		Options:  o,
		Routines: []api.RoutinePatch{{Routine: routine, Asm: asm}},
	})
	if status != http.StatusOK {
		c.t.Fatalf("patch: status %d: %s", status, body)
	}
	var resp api.PatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.t.Fatal(err)
	}
	return resp
}

// TestPatchEndpoint drives the incremental re-analysis endpoint end to
// end: the patched program gets its own identity, the response carries
// the reuse provenance, and the incremental document's summaries match
// a from-scratch analysis of the patched program.
func TestPatchEndpoint(t *testing.T) {
	s, c := newTestClient(t, Config{})
	id := c.mustLoad()
	resp := c.mustPatch(id, api.Options{}, "double", patchedDouble)

	if resp.SchemaVersion != api.SchemaVersionV2 {
		t.Errorf("schema = %q, want %q", resp.SchemaVersion, api.SchemaVersionV2)
	}
	if resp.Base != id {
		t.Errorf("base = %q, want %q", resp.Base, id)
	}
	if resp.Program.ID == id {
		t.Error("patched program kept the base identity")
	}
	if resp.Incremental.DirtyRoutines != 1 {
		t.Errorf("dirty routines = %d, want 1", resp.Incremental.DirtyRoutines)
	}
	if resp.Analysis.SchemaVersion != api.SchemaVersionV2 {
		t.Errorf("analysis doc schema = %q, want %q", resp.Analysis.SchemaVersion, api.SchemaVersionV2)
	}
	if resp.Analysis.Incremental == nil {
		t.Error("analysis doc lacks the incremental block")
	}

	// The incremental result must equal a from-scratch analysis of the
	// patched source, which a fresh daemon loading its bytes computes.
	_, fresh := newTestClient(t, Config{})
	fresh.mustLoadRequest(api.LoadRequest{SXE: programImage(t, s, resp.Program.ID)})
	status, body := fresh.post("/v1/summary", api.SummaryRequest{
		Program: resp.Program.ID, Routine: "double",
	})
	if status != http.StatusOK {
		t.Fatalf("summary of patched program: status %d: %s", status, body)
	}
	var sum api.SummaryResponse
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	var fromPatch *api.RoutineSummary
	for i := range resp.Analysis.Routines {
		if resp.Analysis.Routines[i].Routine == "double" {
			fromPatch = &resp.Analysis.Routines[i]
		}
	}
	if fromPatch == nil {
		t.Fatal("patch document has no summary for double")
	}
	a, b := *fromPatch, sum.Summary
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("incremental summary differs from scratch:\n inc: %s\n scr: %s", aj, bj)
	}

	// The edit is visible: a1 is now used by double.
	if len(a.Entries) != 1 || !strings.Contains(a.Entries[0].CallUsed, "a1") {
		t.Errorf("patched double call-used = %+v, want a1 used", a.Entries)
	}
}

// TestPatchErrors pins the failure statuses: unknown program 404,
// unknown routine 404, bad assembly 400, empty patch 400.
func TestPatchErrors(t *testing.T) {
	_, c := newTestClient(t, Config{})
	id := c.mustLoad()
	for _, tc := range []struct {
		name   string
		req    api.PatchRequest
		status int
	}{
		{"unknown program", api.PatchRequest{Program: "sha256:0",
			Routines: []api.RoutinePatch{{Routine: "double", Asm: "  ret"}}}, http.StatusNotFound},
		{"unknown routine", api.PatchRequest{Program: id,
			Routines: []api.RoutinePatch{{Routine: "nope", Asm: "  ret"}}}, http.StatusNotFound},
		{"bad asm", api.PatchRequest{Program: id,
			Routines: []api.RoutinePatch{{Routine: "double", Asm: "  bogus x, y"}}}, http.StatusBadRequest},
		{"empty", api.PatchRequest{Program: id}, http.StatusBadRequest},
	} {
		status, body := c.post("/v1/patch", tc.req)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, status, tc.status, body)
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if er.SchemaVersion != api.SchemaVersionV2 {
			t.Errorf("%s: error schema = %q, want %q", tc.name, er.SchemaVersion, api.SchemaVersionV2)
		}
	}
}

// TestPatchedEntryServesV1Document pins the one cache entry per
// (program, options) from the v1 side: a v1 /v1/analyze of a patched
// program is served from the entry the patch installed — a hit, not a
// second compute — and the document rendered for it is stamped
// spike.v1, carries no v2 incremental block, and has the routines and
// PSG counts of a from-scratch analysis.
func TestPatchedEntryServesV1Document(t *testing.T) {
	s, c := newTestClient(t, Config{})
	id := c.mustLoad()
	resp := c.mustPatch(id, api.Options{}, "double", patchedDouble)
	patchedID := resp.Program.ID

	hits := counterValue(t, s, "serve/analysis_cache_hits")
	misses := counterValue(t, s, "serve/analysis_cache_misses")
	status, body := c.post("/v1/analyze", api.AnalyzeRequest{Program: patchedID})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", status, body)
	}
	if got := counterValue(t, s, "serve/analysis_cache_hits"); got != hits+1 {
		t.Errorf("v1 analyze of the patched program: hits %d -> %d, want +1", hits, got)
	}
	if got := counterValue(t, s, "serve/analysis_cache_misses"); got != misses {
		t.Errorf("v1 analyze of the patched program recomputed it (misses %d -> %d)", misses, got)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if v := raw["schema_version"]; v != api.SchemaVersion {
		t.Errorf("v1 analyze served schema %v, want %v", v, api.SchemaVersion)
	}
	if _, leaked := raw["incremental"]; leaked {
		t.Error("v1 analyze served a document with the v2 incremental block")
	}

	// A fresh daemon that loads the patched bytes analyzes from scratch.
	_, fresh := newTestClient(t, Config{})
	if got := fresh.mustLoadRequest(api.LoadRequest{SXE: programImage(t, s, patchedID)}); got != patchedID {
		t.Fatalf("fresh daemon named the patched program %s, want %s", got, patchedID)
	}
	status, freshBody := fresh.post("/v1/analyze", api.AnalyzeRequest{Program: patchedID})
	if status != http.StatusOK {
		t.Fatalf("fresh analyze: status %d: %s", status, freshBody)
	}
	var doc, want api.AnalysisDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(freshBody, &want); err != nil {
		t.Fatal(err)
	}
	gotRoutines, _ := json.Marshal(doc.Routines)
	wantRoutines, _ := json.Marshal(want.Routines)
	if string(gotRoutines) != string(wantRoutines) {
		t.Errorf("routines differ from a from-scratch analysis:\n got: %s\nwant: %s", gotRoutines, wantRoutines)
	}
	if doc.Stats.PSGNodes != want.Stats.PSGNodes || doc.Stats.PSGEdges != want.Stats.PSGEdges {
		t.Errorf("PSG nodes/edges = %d/%d, from scratch %d/%d",
			doc.Stats.PSGNodes, doc.Stats.PSGEdges, want.Stats.PSGNodes, want.Stats.PSGEdges)
	}
}

// TestInstalledEntriesAreWarm pins the read-after-write path: after
// /v1/patch, /v1/optimize or a snapshot load, the first summary,
// liveness and call-site queries on the resulting program are served
// from the entry that request installed — no analysis miss, a "cache
// hit" span — and answer byte-identically to a fresh daemon that
// loaded the same program bytes.
func TestInstalledEntriesAreWarm(t *testing.T) {
	for _, tc := range []struct {
		name    string
		install func(t *testing.T, c *testClient, id string) string
	}{
		{"patch", func(t *testing.T, c *testClient, id string) string {
			return c.mustPatch(id, api.Options{}, "double", patchedDouble).Program.ID
		}},
		{"optimize", func(t *testing.T, c *testClient, id string) string {
			status, body := c.post("/v1/optimize", api.OptimizeRequest{Program: id})
			if status != http.StatusOK {
				t.Fatalf("optimize: status %d: %s", status, body)
			}
			var resp api.OptimizeResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			return resp.Program.ID
		}},
		{"snapshot load", func(t *testing.T, c *testClient, id string) string {
			_, saver := newTestClient(t, Config{})
			saver.mustLoad()
			status, body := saver.post("/v1/snapshot", api.SnapshotRequest{Action: "save", Program: id})
			if status != http.StatusOK {
				t.Fatalf("save: status %d: %s", status, body)
			}
			var saved api.SnapshotResponse
			if err := json.Unmarshal(body, &saved); err != nil {
				t.Fatal(err)
			}
			status, body = c.post("/v1/snapshot", api.SnapshotRequest{Action: "load", Snapshot: saved.Snapshot})
			if status != http.StatusOK {
				t.Fatalf("load: status %d: %s", status, body)
			}
			return id
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newTestClient(t, Config{FlightRecorder: 8})
			id := tc.install(t, c, c.mustLoad())
			_, fresh := newTestClient(t, Config{})
			if got := fresh.mustLoadRequest(api.LoadRequest{SXE: programImage(t, s, id)}); got != id {
				t.Fatalf("fresh daemon named the program %s, want %s", got, id)
			}
			call := firstCall(t, s, id)
			for _, q := range []struct {
				route, name string
				req         any
			}{
				{"/v1/summary", "summary", api.SummaryRequest{Program: id, Routine: "double"}},
				{"/v1/liveness", "liveness", api.LivenessRequest{Program: id, Routine: "main", Instr: 0}},
				{"/v1/callsite", "callsite", api.CallSiteRequest{Program: id, Routine: "main", Instr: call}},
			} {
				misses := counterValue(t, s, "serve/analysis_cache_misses")
				status, body := c.post(q.route, q.req)
				if status != http.StatusOK {
					t.Fatalf("%s: status %d: %s", q.name, status, body)
				}
				if got := counterValue(t, s, "serve/analysis_cache_misses"); got != misses {
					t.Errorf("%s after %s: analysis misses %d -> %d, want unchanged", q.name, tc.name, misses, got)
				}
				if spans := lastSpanNames(t, s, q.name); !spans["cache hit"] || spans["cache miss"] {
					t.Errorf("%s after %s: spans %v, want a cache hit and no miss", q.name, tc.name, spans)
				}
				status, want := fresh.post(q.route, q.req)
				if status != http.StatusOK {
					t.Fatalf("fresh %s: status %d: %s", q.name, status, want)
				}
				if string(body) != string(want) {
					t.Errorf("%s after %s differs from a fresh daemon:\n got: %s\nwant: %s", q.name, tc.name, body, want)
				}
			}
		})
	}
}

// TestBaseAnalysisSharedWithV1 pins the other direction: a patch or a
// snapshot save whose base program was already queried through v1
// reuses that analysis instead of computing it again.
func TestBaseAnalysisSharedWithV1(t *testing.T) {
	s, c := newTestClient(t, Config{})
	id := c.mustLoad()
	if status, body := c.post("/v1/summary", api.SummaryRequest{Program: id, Routine: "main"}); status != http.StatusOK {
		t.Fatalf("summary: status %d: %s", status, body)
	}
	misses := counterValue(t, s, "serve/analysis_cache_misses")
	c.mustPatch(id, api.Options{}, "double", patchedDouble)
	if got := counterValue(t, s, "serve/analysis_cache_misses"); got != misses {
		t.Errorf("patch of a v1-queried base recomputed it (misses %d -> %d)", misses, got)
	}
	if status, body := c.post("/v1/snapshot", api.SnapshotRequest{Action: "save", Program: id}); status != http.StatusOK {
		t.Fatalf("save: status %d: %s", status, body)
	}
	if got := counterValue(t, s, "serve/analysis_cache_misses"); got != misses {
		t.Errorf("snapshot save of a v1-queried program recomputed it (misses %d -> %d)", misses, got)
	}
}

// programImage encodes a program the daemon holds, so a test can load
// the same bytes elsewhere.
func programImage(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	v, ok := s.programs.get(id)
	if !ok {
		t.Fatalf("daemon does not hold program %s", id)
	}
	img, err := sxe.Encode(v.(*loadedProgram).prog)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// firstCall returns the index of main's first direct call in a
// program the daemon holds.
func firstCall(t *testing.T, s *Server, id string) int {
	t.Helper()
	v, ok := s.programs.get(id)
	if !ok {
		t.Fatalf("daemon does not hold program %s", id)
	}
	p := v.(*loadedProgram).prog
	ri, _ := p.Index("main")
	for i, in := range p.Routines[ri].Code {
		if in.Op == isa.OpJsr {
			return i
		}
	}
	t.Fatalf("program %s: main has no call", id)
	return 0
}

// lastSpanNames returns the span names of the most recent request,
// which must be on route.
func lastSpanNames(t *testing.T, s *Server, route string) map[string]bool {
	t.Helper()
	last := s.flight.Last(1)
	if len(last) != 1 || last[0].Route != route {
		t.Fatalf("flight recorder's last request is not a %s request", route)
	}
	names := map[string]bool{}
	for _, sp := range last[0].Tracer().Spans() {
		names[sp.Name] = true
	}
	return names
}

// TestSnapshotSaveLoad round-trips a converged analysis through the
// snapshot endpoint: save on one daemon, load on a fresh one, where it
// warms the analysis cache without re-running the solver.
func TestSnapshotSaveLoad(t *testing.T) {
	_, c1 := newTestClient(t, Config{})
	id := c1.mustLoad()
	status, body := c1.post("/v1/snapshot", api.SnapshotRequest{Action: "save", Program: id})
	if status != http.StatusOK {
		t.Fatalf("save: status %d: %s", status, body)
	}
	var saved api.SnapshotResponse
	if err := json.Unmarshal(body, &saved); err != nil {
		t.Fatal(err)
	}
	if saved.Program != id || len(saved.Snapshot) == 0 || saved.Bytes != len(saved.Snapshot) {
		t.Fatalf("save response inconsistent: %+v", saved)
	}
	if saved.OptionKey != (api.Options{}).Key() {
		t.Errorf("option key = %q, want default", saved.OptionKey)
	}

	// A fresh daemon: load the program, then the snapshot.
	s2, c2 := newTestClient(t, Config{})
	if got := c2.mustLoad(); got != id {
		t.Fatalf("program ID drifted: %s vs %s", got, id)
	}
	status, body = c2.post("/v1/snapshot", api.SnapshotRequest{Action: "load", Snapshot: saved.Snapshot})
	if status != http.StatusOK {
		t.Fatalf("load: status %d: %s", status, body)
	}
	var loaded api.SnapshotResponse
	if err := json.Unmarshal(body, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Action != "load" || loaded.Program != id {
		t.Fatalf("load response inconsistent: %+v", loaded)
	}
	wantKey := analysisKey(id, api.Options{})
	warm := false
	for _, k := range s2.analyses.keys() {
		if k == wantKey {
			warm = true
		}
	}
	if !warm {
		t.Fatalf("snapshot load did not warm the cache under %q (have %v)", wantKey, s2.analyses.keys())
	}

	// The warmed entry answers the patch endpoint without a base
	// compute: the analysis-cache hit counter moves, the miss stays.
	misses := counterValue(t, s2, "serve/analysis_cache_misses")
	resp := c2.mustPatch(id, api.Options{}, "double", patchedDouble)
	if resp.Incremental.DirtyRoutines != 1 {
		t.Errorf("patch from warmed cache: dirty = %d, want 1", resp.Incremental.DirtyRoutines)
	}
	if got := counterValue(t, s2, "serve/analysis_cache_misses"); got != misses {
		t.Errorf("patch from warmed cache recomputed the base analysis (misses %d -> %d)", misses, got)
	}
}

func counterValue(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	for _, cv := range s.metrics.Snapshot().Counters {
		if cv.Name == name {
			return cv.Value
		}
	}
	return 0
}

// TestSnapshotPathRoundTrip exercises the filesystem form: save to a
// path, load from it on a fresh daemon.
func TestSnapshotPathRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.snap")
	_, c1 := newTestClient(t, Config{})
	id := c1.mustLoad()
	o := api.Options{OpenWorld: true}
	status, body := c1.post("/v1/snapshot", api.SnapshotRequest{
		Action: "save", Program: id, Options: &o, Path: path,
	})
	if status != http.StatusOK {
		t.Fatalf("save: status %d: %s", status, body)
	}
	var saved api.SnapshotResponse
	if err := json.Unmarshal(body, &saved); err != nil {
		t.Fatal(err)
	}
	if len(saved.Snapshot) != 0 {
		t.Error("path save also returned the image inline")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(saved.Bytes) {
		t.Fatalf("snapshot file: %v (size %v, want %d)", err, fi, saved.Bytes)
	}

	s2, c2 := newTestClient(t, Config{})
	c2.mustLoad()
	status, body = c2.post("/v1/snapshot", api.SnapshotRequest{Action: "load", Path: path})
	if status != http.StatusOK {
		t.Fatalf("load: status %d: %s", status, body)
	}
	wantKey := analysisKey(id, o)
	warm := false
	for _, k := range s2.analyses.keys() {
		if k == wantKey {
			warm = true
		}
	}
	if !warm {
		t.Fatalf("load from path did not warm %q (have %v)", wantKey, s2.analyses.keys())
	}
}

// TestSnapshotErrors pins the failure statuses, in particular the
// typed 409 conflicts for option and program mismatches.
func TestSnapshotErrors(t *testing.T) {
	_, c := newTestClient(t, Config{})
	id := c.mustLoad()
	status, body := c.post("/v1/snapshot", api.SnapshotRequest{Action: "save", Program: id})
	if status != http.StatusOK {
		t.Fatalf("save: status %d: %s", status, body)
	}
	var saved api.SnapshotResponse
	if err := json.Unmarshal(body, &saved); err != nil {
		t.Fatal(err)
	}
	img := saved.Snapshot

	wrong := api.Options{OpenWorld: true}
	for _, tc := range []struct {
		name   string
		req    api.SnapshotRequest
		status int
	}{
		{"bad action", api.SnapshotRequest{Action: "rotate"}, http.StatusBadRequest},
		{"save unknown program", api.SnapshotRequest{Action: "save", Program: "sha256:0"}, http.StatusNotFound},
		{"load no image", api.SnapshotRequest{Action: "load"}, http.StatusBadRequest},
		{"load corrupt", api.SnapshotRequest{Action: "load", Snapshot: img[:len(img)/2]}, http.StatusBadRequest},
		{"load option conflict", api.SnapshotRequest{Action: "load", Snapshot: img, Options: &wrong}, http.StatusConflict},
		{"load program conflict", api.SnapshotRequest{Action: "load", Snapshot: img, Program: "sha256:0"}, http.StatusConflict},
	} {
		status, body := c.post("/v1/snapshot", tc.req)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, status, tc.status, body)
		}
	}

	// The option-conflict error is the typed core mismatch, rendered.
	status, body = c.post("/v1/snapshot", api.SnapshotRequest{Action: "load", Snapshot: img, Options: &wrong})
	if status != http.StatusConflict {
		t.Fatalf("conflict: status %d", status)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	want := (&core.ConfigMismatchError{Want: (api.Options{}).Key(), Got: wrong.Key()}).Error()
	if !strings.Contains(er.Error, want) {
		t.Errorf("conflict error = %q, want it to contain %q", er.Error, want)
	}

	// A snapshot of a program the daemon does not hold is a 404 telling
	// the client to load the program first.
	_, c2 := newTestClient(t, Config{})
	status, body = c2.post("/v1/snapshot", api.SnapshotRequest{Action: "load", Snapshot: img})
	if status != http.StatusNotFound {
		t.Errorf("load without program: status %d, want 404: %s", status, body)
	}
}

// TestSnapshotLoadRefusesNonContiguousEdges loads a well-formed image
// whose edge slab is not routine-contiguous: testSrc's saved state with
// the six edge columns rotated so main's edges come after double's. The
// checksum is recomputed and every index is in range, so only core's
// slab-order check catches it. The daemon must answer 400 and cache
// nothing, rather than hand later patches and queries an analysis whose
// routine ranges name the wrong edges.
func TestSnapshotLoadRefusesNonContiguousEdges(t *testing.T) {
	_, c1 := newTestClient(t, Config{})
	id := c1.mustLoad()
	status, body := c1.post("/v1/snapshot", api.SnapshotRequest{Action: "save", Program: id})
	if status != http.StatusOK {
		t.Fatalf("save: status %d: %s", status, body)
	}
	var saved api.SnapshotResponse
	if err := json.Unmarshal(body, &saved); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(saved.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	st := snap.State
	k := 0 // main's edges lead the slab
	for k < len(st.EdgeSrc) && st.NodeRoutine[st.EdgeSrc[k]] == 0 {
		k++
	}
	if k == 0 || k == len(st.EdgeSrc) {
		t.Fatalf("main has %d of %d edges; rotating them changes no order", k, len(st.EdgeSrc))
	}
	st.EdgeKind, st.EdgeSrc, st.EdgeDst = rotate(st.EdgeKind, k), rotate(st.EdgeSrc, k), rotate(st.EdgeDst, k)
	st.EdgeMayUse, st.EdgeMayDef, st.EdgeMustDef = rotate(st.EdgeMayUse, k), rotate(st.EdgeMayDef, k), rotate(st.EdgeMustDef, k)

	s2, c2 := newTestClient(t, Config{})
	c2.mustLoad()
	status, body = c2.post("/v1/snapshot", api.SnapshotRequest{Action: "load", Snapshot: snap.Encode()})
	if status != http.StatusBadRequest {
		t.Errorf("load: status %d, want 400: %s", status, body)
	}
	if keys := s2.analyses.keys(); len(keys) != 0 {
		t.Errorf("refused load cached analyses %v", keys)
	}
}

// rotate returns s with its first k elements moved to the end.
func rotate[T any](s []T, k int) []T {
	return append(slices.Clone(s[k:]), s[:k]...)
}

// TestOptimizeEndpoint drives POST /v1/optimize end to end: the
// optimized program gets its own identity and is immediately queryable,
// the report records the shrink, the emulator verification lands in the
// response, and a repeated request is served from the cache.
func TestOptimizeEndpoint(t *testing.T) {
	s, c := newTestClient(t, Config{})
	id := c.mustLoad()

	status, body := c.post("/v1/optimize", api.OptimizeRequest{Program: id, Verify: true})
	if status != http.StatusOK {
		t.Fatalf("optimize: status %d: %s", status, body)
	}
	var resp api.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SchemaVersion != api.SchemaVersionV2 {
		t.Errorf("schema = %q, want %q", resp.SchemaVersion, api.SchemaVersionV2)
	}
	if resp.Base != id || resp.Program.ID == id || resp.Program.ID == "" {
		t.Errorf("identity: base = %q, new = %q", resp.Base, resp.Program.ID)
	}
	// testSrc's dead `lda a1` must be gone.
	if resp.Report.InstructionsAfter >= resp.Report.InstructionsBefore {
		t.Errorf("report shows no shrink: %+v", resp.Report)
	}
	if resp.Report.Verify == nil || !resp.Report.Verify.OutputIdentical {
		t.Fatalf("verify result missing or failed: %+v", resp.Report.Verify)
	}
	if resp.Report.Verify.Improvement == "" {
		t.Error("verify improvement empty")
	}
	if resp.Analysis.SchemaVersion != api.SchemaVersionV2 {
		t.Errorf("analysis doc schema = %q", resp.Analysis.SchemaVersion)
	}

	// The optimized program is loaded and its analysis cache-warmed: a
	// v1 summary query on the new ID answers without a fresh compute.
	misses := counterValue(t, s, "serve/analysis_cache_misses")
	status, body = c.post("/v1/summary", api.SummaryRequest{Program: resp.Program.ID, Routine: "double"})
	if status != http.StatusOK {
		t.Fatalf("summary of optimized program: status %d: %s", status, body)
	}
	if got := counterValue(t, s, "serve/analysis_cache_misses"); got != misses {
		t.Errorf("summary of optimized program recomputed it (misses %d -> %d)", misses, got)
	}
	wantKey := analysisKey(resp.Program.ID, api.Options{})
	warm := false
	for _, k := range s.analyses.keys() {
		if k == wantKey {
			warm = true
		}
	}
	if !warm {
		t.Errorf("optimize did not warm %q (have %v)", wantKey, s.analyses.keys())
	}

	// Repeat: byte-identical request, served from the cache.
	hits := counterValue(t, s, "serve/analysis_cache_hits")
	misses = counterValue(t, s, "serve/analysis_cache_misses")
	status, body2 := c.post("/v1/optimize", api.OptimizeRequest{Program: id, Verify: true})
	if status != http.StatusOK {
		t.Fatalf("repeat optimize: status %d: %s", status, body2)
	}
	if got := counterValue(t, s, "serve/analysis_cache_hits"); got != hits+1 {
		t.Errorf("repeat optimize: hits %d -> %d, want +1", hits, got)
	}
	if got := counterValue(t, s, "serve/analysis_cache_misses"); got != misses {
		t.Errorf("repeat optimize recomputed (misses %d -> %d)", misses, got)
	}
	var resp2 api.OptimizeResponse
	if err := json.Unmarshal(body2, &resp2); err != nil {
		t.Fatal(err)
	}
	r1j, _ := json.Marshal(resp.Report)
	r2j, _ := json.Marshal(resp2.Report)
	if resp2.Program.ID != resp.Program.ID || string(r1j) != string(r2j) {
		t.Error("cached optimize response differs from the original")
	}

	// Different knobs must not share the cached response.
	status, body = c.post("/v1/optimize", api.OptimizeRequest{Program: id, NoDeadCode: true})
	if status != http.StatusOK {
		t.Fatalf("optimize with knobs: status %d: %s", status, body)
	}
	var resp3 api.OptimizeResponse
	if err := json.Unmarshal(body, &resp3); err != nil {
		t.Fatal(err)
	}
	if resp3.Report.DeadInstructions != 0 {
		t.Errorf("NoDeadCode request reports dead-code work: %+v", resp3.Report)
	}
}

// TestOptimizeErrors pins the failure statuses.
func TestOptimizeErrors(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.mustLoad()
	status, body := c.post("/v1/optimize", api.OptimizeRequest{Program: "sha256:0"})
	if status != http.StatusNotFound {
		t.Errorf("unknown program: status %d, want 404: %s", status, body)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.SchemaVersion != api.SchemaVersionV2 {
		t.Errorf("error schema = %q, want %q", er.SchemaVersion, api.SchemaVersionV2)
	}
}

// TestPatchChain edits twice, the second patch building on the first:
// each hop is one dirty routine, and identity chains through Base.
func TestPatchChain(t *testing.T) {
	s, c := newTestClient(t, Config{})
	id := c.mustLoad()
	r1 := c.mustPatch(id, api.Options{}, "double", patchedDouble)
	r2 := c.mustPatch(r1.Program.ID, api.Options{}, "main", `
  lda a0, 7(zero)
  lda a1, 2(zero)
  jsr double
  print v0
  halt
`)
	if r2.Base != r1.Program.ID {
		t.Errorf("second patch base = %q, want %q", r2.Base, r1.Program.ID)
	}
	if r2.Incremental.DirtyRoutines != 1 {
		t.Errorf("second patch dirty = %d, want 1", r2.Incremental.DirtyRoutines)
	}
	// The second hop's base analysis was the cached incremental result
	// of the first — reanalysis of a reanalysis still matches scratch.
	_, fresh := newTestClient(t, Config{})
	fresh.mustLoadRequest(api.LoadRequest{SXE: programImage(t, s, r2.Program.ID)})
	status, body := fresh.post("/v1/summary", api.SummaryRequest{Program: r2.Program.ID, Routine: "main"})
	if status != http.StatusOK {
		t.Fatalf("summary: status %d: %s", status, body)
	}
	var sum api.SummaryResponse
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	var inc *api.RoutineSummary
	for i := range r2.Analysis.Routines {
		if r2.Analysis.Routines[i].Routine == "main" {
			inc = &r2.Analysis.Routines[i]
		}
	}
	aj, _ := json.Marshal(inc)
	bj, _ := json.Marshal(sum.Summary)
	if string(aj) != string(bj) {
		t.Errorf("chained incremental summary differs from scratch:\n inc: %s\n scr: %s", aj, bj)
	}
}

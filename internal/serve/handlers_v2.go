package serve

// The spike.v2 endpoints: POST /v1/patch (incremental re-analysis of
// an edited program), POST /v1/optimize (the Figure 1 optimizer) and
// POST /v1/snapshot (save/load a converged analysis in the
// internal/snapshot binary format). Everything here stamps documents
// with api.SchemaVersionV2. The analyses these endpoints read and
// install are the same cache entries the v1 point queries use; only
// the rendered document differs by schema.

import (
	"context"
	"errors"
	"net/http"
	"os"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/snapshot"
	"repro/internal/sxe"
)

// v2Status maps an analysis-layer error to an HTTP status: the typed
// mismatches — wrong option set, wrong program bytes — are conflicts
// between the request and existing state (409); everything else is a
// bad request.
func v2Status(err error) int {
	var cm *core.ConfigMismatchError
	var pm *core.ProgramMismatchError
	if errors.As(err, &cm) || errors.As(err, &pm) {
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func (s *Server) handlePatch(r *http.Request) (int, any) {
	const schema = api.SchemaVersionV2
	var req api.PatchRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(schema, err)
	}
	if len(req.Routines) == 0 {
		return errRespV(schema, http.StatusBadRequest, "patch: no routine bodies to replace")
	}
	// The base analysis is the warm start; computed on demand like any
	// query, and shared with every route that reads the base program.
	lp, ent, status, err := s.query(r.Context(), req.Program, req.Options)
	if err != nil {
		return errRespV(schema, status, "%v", err)
	}

	// Clone-on-edit: only patched routines get fresh *Routine values;
	// everything else stays pointer-shared with the base program so
	// Reanalyze can prove it clean without rehashing.
	patched := lp.prog.ShallowClone()
	for _, rp := range req.Routines {
		ri, ok := patched.Index(rp.Routine)
		if !ok {
			return errRespV(schema, http.StatusNotFound,
				"program %s has no routine %q", lp.id, rp.Routine)
		}
		nr, err := prog.AssembleRoutine(patched, rp.Routine, rp.Asm)
		if err != nil {
			return errRespV(schema, http.StatusBadRequest, "patch %s: %v", rp.Routine, err)
		}
		// A patch replaces the body, not the address-taken-ness: that
		// property belongs to the rest of the program (data references
		// to the routine), which the patch text cannot see.
		nr.AddressTaken = nr.AddressTaken || patched.Routines[ri].AddressTaken
		patched.Routines[ri] = nr
	}
	patched.RebuildIndex()
	// The patched image copies every record the edit left alone from
	// the base's image.
	img, err := lp.img.Splice(patched)
	if err != nil {
		return errRespV(schema, http.StatusBadRequest, "patched program: %v", err)
	}
	info := api.ProgramInfoOf(patched, img.Bytes)

	m := obs.NewMetrics()
	inc, err := core.ReanalyzeContext(r.Context(), ent.a, patched,
		req.Options.AnalysisOptions(core.WithParallelism(s.conf.Parallelism), core.WithMetrics(m),
			core.WithTracer(obs.TraceFrom(r.Context()).Tracer()))...)
	if err != nil {
		return errRespV(schema, v2Status(err), "reanalyze: %v", err)
	}

	// The patched program becomes a first-class loaded program, its
	// incremental analysis a ready cache entry: follow-up queries on the
	// new ID, v1 point queries included, hit the cache instead of
	// re-solving.
	newLP := &loadedProgram{id: info.ID, prog: patched, info: info, img: img}
	s.programs.add(newLP.id, newLP)
	s.progLoads.Add(1)
	newEnt := finishedEntry(inc, m.Snapshot())
	s.analyses.add(analysisKey(newLP.id, req.Options), newEnt)

	// An api.PatchResponse on the wire.
	return http.StatusOK, docResponse{
		head: api.PatchHeader{
			SchemaVersion: schema,
			Base:          lp.id,
			Program:       info,
			Incremental:   api.IncrementalInfoOf(inc.Incremental),
		},
		schema: schema,
		ent:    newEnt,
	}
}

// optVerifyMaxSteps bounds the emulator runs a verifying optimize
// request may cost the daemon.
const optVerifyMaxSteps = 100_000_000

// optimizeEntry caches one finished optimize response, encoded, in the
// analysis LRU (whose values are untyped); the optimizer is
// deterministic, so replaying the response for an identical request is
// exact.
type optimizeEntry struct {
	body []byte
}

// optimizeKey extends the analysis cache key with the optimizer knobs:
// two requests share a cached response exactly when they agree on the
// program, the analysis world and every pass toggle.
func optimizeKey(id string, o api.Options, req *api.OptimizeRequest) string {
	return analysisKey(id, o) + "|opt|" + req.OptKey()
}

func (s *Server) handleOptimize(r *http.Request) (int, any) {
	const schema = api.SchemaVersionV2
	var req api.OptimizeRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(schema, err)
	}
	lp, err := s.program(req.Program)
	if err != nil {
		return errRespV(schema, http.StatusNotFound, "%v", err)
	}
	key := optimizeKey(lp.id, req.Options, &req)
	if v, ok := s.analyses.get(key); ok {
		if ent, ok := v.(*optimizeEntry); ok {
			s.anaHits.Add(1)
			return http.StatusOK, rawResponse{"application/json", ent.body}
		}
	}
	s.anaMisses.Add(1)

	m := obs.NewMetrics()
	osp := obs.TraceFrom(r.Context()).Tracer().Begin("optimize")
	opts := req.OptOptions()
	opts.Analysis = core.NewConfig(req.Options.AnalysisOptions(
		core.WithParallelism(s.conf.Parallelism), core.WithMetrics(m),
		core.WithTracer(osp.Tracer()))...)
	out, fa, rep, err := opt.OptimizeAnalyzed(lp.prog, opts)
	osp.End()
	if err != nil {
		return errRespV(schema, v2Status(err), "optimize: %v", err)
	}
	wrep := api.OptReportOf(rep)
	if req.Verify {
		before, err := emu.Run(lp.prog.Clone(), optVerifyMaxSteps)
		if err != nil {
			return errRespV(schema, http.StatusBadRequest, "optimize verify: pre-run: %v", err)
		}
		after, err := emu.Run(out.Clone(), optVerifyMaxSteps)
		if err != nil {
			return errRespV(schema, http.StatusBadRequest, "optimize verify: post-run: %v", err)
		}
		if !emu.SameOutput(before, after) {
			return errRespV(schema, http.StatusInternalServerError,
				"optimize verify: output changed")
		}
		wrep.Verify = &api.VerifyResult{
			OutputIdentical: true,
			StepsBefore:     before.Steps,
			StepsAfter:      after.Steps,
			Improvement:     api.ImprovementPct(before.Steps, after.Steps),
		}
	}

	img, err := sxe.EncodeImage(out)
	if err != nil {
		return errRespV(schema, http.StatusInternalServerError, "optimized program: %v", err)
	}
	info := api.ProgramInfoOf(out, img.Bytes)

	// Mirror handlePatch: the optimized program becomes a first-class
	// loaded program and its converged analysis a ready cache entry, so
	// follow-up queries on the new ID, v1 point queries included, are
	// warm.
	newLP := &loadedProgram{id: info.ID, prog: out, info: info, img: img}
	s.programs.add(newLP.id, newLP)
	s.progLoads.Add(1)
	newEnt := finishedEntry(fa, m.Snapshot())
	s.analyses.add(analysisKey(newLP.id, req.Options), newEnt)

	// An api.OptimizeResponse on the wire.
	body, err := encodeJSON(docResponse{
		head: api.OptimizeHeader{
			SchemaVersion: schema,
			Base:          lp.id,
			Program:       info,
			Report:        wrep,
		},
		schema: schema,
		ent:    newEnt,
	})
	if err != nil {
		return http.StatusInternalServerError, rawResponse{"application/json", s.encodeFailed("optimize", err)}
	}
	s.analyses.add(key, &optimizeEntry{body: body})
	return http.StatusOK, rawResponse{"application/json", body}
}

func (s *Server) handleSnapshot(r *http.Request) (int, any) {
	const schema = api.SchemaVersionV2
	var req api.SnapshotRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(schema, err)
	}
	switch req.Action {
	case "save":
		return s.snapshotSave(r.Context(), &req)
	case "load":
		return s.snapshotLoad(r.Context(), &req)
	default:
		return errRespV(schema, http.StatusBadRequest,
			"snapshot: unknown action %q (want save or load)", req.Action)
	}
}

// snapshotSave captures the converged analysis of (program, options)
// as a binary snapshot image — inline in the response, or written to
// the daemon's filesystem when the request names a path.
func (s *Server) snapshotSave(ctx context.Context, req *api.SnapshotRequest) (int, any) {
	const schema = api.SchemaVersionV2
	var o api.Options
	if req.Options != nil {
		o = *req.Options
	}
	lp, ent, status, err := s.query(ctx, req.Program, o)
	if err != nil {
		return errRespV(schema, status, "%v", err)
	}
	img := snapshot.Capture(ent.a, lp.id).Encode()
	resp := api.SnapshotResponse{
		SchemaVersion: schema,
		Action:        "save",
		Program:       lp.id,
		OptionKey:     o.Key(),
		Bytes:         len(img),
	}
	if req.Path != "" {
		if err := os.WriteFile(req.Path, img, 0o644); err != nil {
			return errRespV(schema, http.StatusInternalServerError, "snapshot save: %v", err)
		}
		resp.Path = req.Path
	} else {
		resp.Snapshot = img
	}
	return http.StatusOK, resp
}

// snapshotLoad restores an analysis from a snapshot image and warms
// the analysis cache with it: every route, v1 point queries included,
// then reads the restored analysis. The image binds its own program
// identity (per-routine body hashes) and option set; the program must
// already be loaded, and request fields that contradict the snapshot
// are a conflict, not an override.
func (s *Server) snapshotLoad(ctx context.Context, req *api.SnapshotRequest) (int, any) {
	const schema = api.SchemaVersionV2
	img := req.Snapshot
	if req.Path != "" {
		if len(img) > 0 {
			return errRespV(schema, http.StatusBadRequest,
				"snapshot load: set path or snapshot, not both")
		}
		var err error
		img, err = os.ReadFile(req.Path)
		if err != nil {
			return errRespV(schema, http.StatusBadRequest, "snapshot load: %v", err)
		}
	}
	if len(img) == 0 {
		return errRespV(schema, http.StatusBadRequest,
			"snapshot load: no image (set path or snapshot)")
	}
	snap, err := snapshot.Decode(img)
	if err != nil {
		return errRespV(schema, http.StatusBadRequest, "snapshot load: %v", err)
	}
	o, err := api.ParseOptionsKey(snap.OptionKey())
	if err != nil {
		return errRespV(schema, http.StatusBadRequest, "snapshot load: %v", err)
	}
	if req.Options != nil && req.Options.Key() != o.Key() {
		return errRespV(schema, http.StatusConflict, "snapshot load: %v",
			&core.ConfigMismatchError{Want: o.Key(), Got: req.Options.Key()})
	}
	id := snap.ProgramID
	if req.Program != "" && req.Program != id {
		return errRespV(schema, http.StatusConflict,
			"snapshot load: snapshot is of program %s, request names %s", id, req.Program)
	}
	lp, err := s.program(id)
	if err != nil {
		return errRespV(schema, http.StatusNotFound,
			"snapshot load: program %s is not loaded (load it via POST /v1/programs first)", id)
	}
	m := obs.NewMetrics()
	a, err := snap.RestoreContext(ctx, lp.prog,
		o.AnalysisOptions(core.WithParallelism(s.conf.Parallelism), core.WithMetrics(m),
			core.WithTracer(obs.TraceFrom(ctx).Tracer()))...)
	if err != nil {
		return errRespV(schema, v2Status(err), "snapshot load: %v", err)
	}
	s.analyses.add(analysisKey(lp.id, o), finishedEntry(a, m.Snapshot()))
	return http.StatusOK, api.SnapshotResponse{
		SchemaVersion: schema,
		Action:        "load",
		Program:       lp.id,
		OptionKey:     o.Key(),
		Bytes:         len(img),
	}
}

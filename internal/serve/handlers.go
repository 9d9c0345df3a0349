package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/api"
	"repro/internal/par"
)

func (s *Server) handleLoad(r *http.Request) (int, any) {
	var req api.LoadRequest
	if err := decodeLoad(r, &req); err != nil {
		return decodeError(api.SchemaVersion, err)
	}
	lp, err := s.load(&req)
	if err != nil {
		return errResp(http.StatusBadRequest, "load: %v", err)
	}
	return http.StatusOK, api.LoadResponse{
		SchemaVersion: api.SchemaVersion,
		Program:       lp.info,
	}
}

// query is the shared prologue of every endpoint that reads a loaded
// program's analysis: resolve the program, then its (cached or freshly
// computed) analysis, mapping a failure to its HTTP status.
func (s *Server) query(ctx context.Context, program string, o api.Options) (*loadedProgram, *analysisEntry, int, error) {
	lp, err := s.program(program)
	if err != nil {
		return nil, nil, http.StatusNotFound, err
	}
	ent, err := s.analysis(ctx, lp, o)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone; the status is for the log's benefit.
			status = 499
		}
		return nil, nil, status, err
	}
	return lp, ent, http.StatusOK, nil
}

func (s *Server) handleSummary(r *http.Request) (int, any) {
	var req api.SummaryRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(api.SchemaVersion, err)
	}
	lp, ent, status, err := s.query(r.Context(), req.Program, req.Options)
	if err != nil {
		return errResp(status, "%v", err)
	}
	ri, err := lp.routineIndex(req.Routine)
	if err != nil {
		return errResp(http.StatusNotFound, "%v", err)
	}
	return http.StatusOK, api.SummaryResponse{
		SchemaVersion: api.SchemaVersion,
		Program:       lp.id,
		Summary:       api.SummaryOf(ent.a, ri),
	}
}

func (s *Server) handleLiveness(r *http.Request) (int, any) {
	var req api.LivenessRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(api.SchemaVersion, err)
	}
	lp, ent, status, err := s.query(r.Context(), req.Program, req.Options)
	if err != nil {
		return errResp(status, "%v", err)
	}
	ri, err := lp.routineIndex(req.Routine)
	if err != nil {
		return errResp(http.StatusNotFound, "%v", err)
	}
	pt, err := api.LivenessPointOf(ent.a, ri, req.Instr)
	if err != nil {
		return errResp(http.StatusBadRequest, "%v", err)
	}
	return http.StatusOK, api.LivenessResponse{
		SchemaVersion: api.SchemaVersion,
		Program:       lp.id,
		Point:         pt,
	}
}

func (s *Server) handleCallSite(r *http.Request) (int, any) {
	var req api.CallSiteRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(api.SchemaVersion, err)
	}
	lp, ent, status, err := s.query(r.Context(), req.Program, req.Options)
	if err != nil {
		return errResp(status, "%v", err)
	}
	ri, err := lp.routineIndex(req.Routine)
	if err != nil {
		return errResp(http.StatusNotFound, "%v", err)
	}
	eff, err := api.CallSiteEffectOf(ent.a, ri, req.Instr)
	if err != nil {
		return errResp(http.StatusBadRequest, "%v", err)
	}
	return http.StatusOK, api.CallSiteResponse{
		SchemaVersion: api.SchemaVersion,
		Program:       lp.id,
		CallSite:      eff,
	}
}

func (s *Server) handleCallGraph(r *http.Request) (int, any) {
	var req api.CallGraphRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(api.SchemaVersion, err)
	}
	lp, ent, status, err := s.query(r.Context(), req.Program, req.Options)
	if err != nil {
		return errResp(status, "%v", err)
	}
	comps, waves := api.CallGraphOf(ent.a)
	return http.StatusOK, api.CallGraphResponse{
		SchemaVersion: api.SchemaVersion,
		Program:       lp.id,
		Components:    comps,
		Waves:         waves,
	}
}

func (s *Server) handleAnalyze(r *http.Request) (int, any) {
	var req api.AnalyzeRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(api.SchemaVersion, err)
	}
	_, ent, status, err := s.query(r.Context(), req.Program, req.Options)
	if err != nil {
		return errResp(status, "%v", err)
	}
	// The document is written from the analysis and the metrics frozen
	// when it converged, so every request for this (program, options)
	// serves identical bytes.
	return http.StatusOK, docResponse{schema: api.SchemaVersion, ent: ent}
}

func (s *Server) handleBatch(r *http.Request) (int, any) {
	var req api.BatchRequest
	if err := decodeBody(r, &req); err != nil {
		return decodeError(api.SchemaVersion, err)
	}
	lp, ent, status, err := s.query(r.Context(), req.Program, req.Options)
	if err != nil {
		return errResp(status, "%v", err)
	}
	// One analysis, many answers: the queries fan out on the bounded
	// pool, each writing its own pre-sized slot, so the response order
	// matches the request and is independent of scheduling.
	results := make([]api.QueryResult, len(req.Queries))
	par.ForEach(len(req.Queries), s.batchWorkers(), func(i int) {
		results[i] = answerQuery(lp, ent, &req.Queries[i])
	})
	return http.StatusOK, api.BatchResponse{
		SchemaVersion: api.SchemaVersion,
		Program:       lp.id,
		Results:       results,
	}
}

// answerQuery answers one batch element; a bad query fails alone.
func answerQuery(lp *loadedProgram, ent *analysisEntry, q *api.Query) api.QueryResult {
	res := api.QueryResult{Kind: q.Kind}
	ri, err := lp.routineIndex(q.Routine)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	switch q.Kind {
	case "summary":
		sum := api.SummaryOf(ent.a, ri)
		res.Summary = &sum
	case "liveness":
		pt, err := api.LivenessPointOf(ent.a, ri, q.Instr)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		res.Liveness = &pt
	case "callsite":
		eff, err := api.CallSiteEffectOf(ent.a, ri, q.Instr)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		res.CallSite = &eff
	default:
		res.Error = "unknown query kind " + q.Kind + " (want summary, liveness or callsite)"
	}
	return res
}

func (s *Server) handleHealth(*http.Request) (int, any) {
	return http.StatusOK, api.HealthResponse{
		SchemaVersion: api.SchemaVersion,
		Status:        "ok",
		Programs:      s.programs.len(),
		Analyses:      s.analyses.len(),
	}
}

// handleMetrics serves the registry snapshot. The default rendering is
// the JSON document (api.MetricsResponse); ?format=prometheus selects
// the text exposition format scrapers consume. Either way the per-route
// SLO gauges are refreshed from the rolling windows first, so a scrape
// always sees current p50/p99.
func (s *Server) handleMetrics(r *http.Request) (int, any) {
	s.publishSLOGauges()
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		return http.StatusOK, api.MetricsResponse{
			SchemaVersion: api.SchemaVersion,
			Metrics:       s.metrics.Snapshot(),
		}
	case "prometheus":
		return s.metricsPrometheus()
	default:
		return errResp(http.StatusBadRequest, "unknown format %q (want json or prometheus)", f)
	}
}

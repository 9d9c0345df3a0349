package api

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prog"
)

// AnalysisDoc is the full analysis document: one object with the
// per-routine interprocedural summaries, the analysis statistics and
// the solver telemetry snapshot. It is what `spike analyze
// -format=json` prints and what the daemon's /v1/analyze endpoint
// serves — byte-identical for the same program and options, modulo the
// "_ns" timing fields and counters flagged "unstable". Both write it
// with AppendDoc, which never builds this struct; clients decode into
// it, and RenderDoc builds it.
type AnalysisDoc struct {
	SchemaVersion string           `json:"schema_version"`
	Routines      []RoutineSummary `json:"routines"`
	Stats         Stats            `json:"stats"`
	Metrics       obs.Snapshot     `json:"metrics"`

	// Incremental is the provenance of an incremental re-analysis
	// (spike.v2 documents only); absent for from-scratch analyses and
	// in every spike.v1 document.
	Incremental *IncrementalInfo `json:"incremental,omitempty"`

	// Opt is the optimizer's report when the document describes an
	// optimized program (`spike analyze -opt -format=json`); absent
	// otherwise, keeping plain analysis documents byte-identical to
	// earlier schema revisions.
	Opt *OptReport `json:"opt,omitempty"`
}

// Stats is the wire form of core.Stats: structural counts, schedule
// shape, and stage timings in nanoseconds under "_ns" keys (the
// mechanically identifiable nondeterministic fields).
type Stats struct {
	Routines     int    `json:"routines"`
	Instructions int    `json:"instructions"`
	BasicBlocks  int    `json:"basic_blocks"`
	CFGArcs      int    `json:"cfg_arcs"`
	PSGNodes     int    `json:"psg_nodes"`
	PSGEdges     int    `json:"psg_edges"`
	GraphBytes   uint64 `json:"graph_bytes"`
	Parallelism  int    `json:"parallelism"`

	// SCC schedule shape — parallelism-invariant (DESIGN.md §6).
	SCCComponents    int `json:"scc_components"`
	Phase1Waves      int `json:"phase1_waves"`
	Phase2Waves      int `json:"phase2_waves"`
	Phase1Iterations int `json:"phase1_iterations"`
	Phase2Iterations int `json:"phase2_iterations"`

	// Wall-clock and aggregate-CPU durations, nanoseconds.
	CFGBuildNs       int64 `json:"cfg_build_ns"`
	InitNs           int64 `json:"init_ns"`
	PSGBuildNs       int64 `json:"psg_build_ns"`
	Phase1Ns         int64 `json:"phase1_ns"`
	Phase2Ns         int64 `json:"phase2_ns"`
	CallGraphBuildNs int64 `json:"call_graph_build_ns"`
	TotalNs          int64 `json:"total_ns"`
	TotalCPUNs       int64 `json:"total_cpu_ns"`
}

// StatsOf converts core.Stats to its wire form.
func StatsOf(st *core.Stats) Stats {
	return Stats{
		Routines:         st.Routines,
		Instructions:     st.Instructions,
		BasicBlocks:      st.BasicBlocks,
		CFGArcs:          st.CFGArcs,
		PSGNodes:         st.PSGNodes,
		PSGEdges:         st.PSGEdges,
		GraphBytes:       st.GraphBytes,
		Parallelism:      st.Parallelism,
		SCCComponents:    st.SCCComponents,
		Phase1Waves:      st.Phase1Waves,
		Phase2Waves:      st.Phase2Waves,
		Phase1Iterations: st.Phase1Iterations,
		Phase2Iterations: st.Phase2Iterations,
		CFGBuildNs:       st.CFGBuild.Nanoseconds(),
		InitNs:           st.Init.Nanoseconds(),
		PSGBuildNs:       st.PSGBuild.Nanoseconds(),
		Phase1Ns:         st.Phase1.Nanoseconds(),
		Phase2Ns:         st.Phase2.Nanoseconds(),
		CallGraphBuildNs: st.CallGraphBuild.Nanoseconds(),
		TotalNs:          st.Total().Nanoseconds(),
		TotalCPUNs:       st.TotalCPU().Nanoseconds(),
	}
}

// SummaryOf renders routine ri's summary in wire form.
func SummaryOf(a *core.Analysis, ri int) RoutineSummary {
	s := a.Summary(ri)
	rs := RoutineSummary{
		Routine:   a.Prog.Routines[ri].Name,
		Component: a.CallGraph().Component(ri),
		Entries:   make([]EntrySummary, 0, len(s.CallUsed)),
		Exits:     make([]ExitSummary, 0, len(s.LiveAtExit)),
	}
	for e := range s.CallUsed {
		rs.Entries = append(rs.Entries, EntrySummary{
			CallUsed:    s.CallUsed[e].String(),
			CallDefined: s.CallDefined[e].String(),
			CallKilled:  s.CallKilled[e].String(),
			LiveAtEntry: s.LiveAtEntry[e].String(),
		})
	}
	for x := range s.LiveAtExit {
		rs.Exits = append(rs.Exits, ExitSummary{
			Block:      s.ExitBlocks[x],
			LiveAtExit: s.LiveAtExit[x].String(),
		})
	}
	if !s.SavedRestored.IsEmpty() {
		rs.SavedRestored = s.SavedRestored.String()
	}
	return rs
}

// LivenessPointOf renders the liveness around one instruction.
func LivenessPointOf(a *core.Analysis, ri, instr int) (LivenessPoint, error) {
	before, after, err := a.LivenessAt(ri, instr)
	if err != nil {
		return LivenessPoint{}, err
	}
	return LivenessPoint{
		Routine:    a.Prog.Routines[ri].Name,
		Instr:      instr,
		LiveBefore: before.String(),
		LiveAfter:  after.String(),
	}, nil
}

// CallSiteEffectOf renders the summary applied at one call site.
func CallSiteEffectOf(a *core.Analysis, ri, instr int) (CallSiteEffect, error) {
	eff, err := a.CallSiteEffect(ri, instr)
	if err != nil {
		return CallSiteEffect{}, err
	}
	ce := CallSiteEffect{
		Routine:  a.Prog.Routines[ri].Name,
		Instr:    instr,
		Entry:    eff.Entry,
		Indirect: eff.Indirect,
		Used:     eff.Summary.Used.String(),
		Defined:  eff.Summary.Defined.String(),
		Killed:   eff.Summary.Killed.String(),
	}
	if eff.Target >= 0 {
		ce.Target = a.Prog.Routines[eff.Target].Name
	}
	return ce, nil
}

// CallGraphOf renders the analysis's SCC condensation and wave
// schedule.
func CallGraphOf(a *core.Analysis) ([]ComponentInfo, int) {
	cg := a.CallGraph()
	comps := make([]ComponentInfo, cg.NumComponents())
	for c := range comps {
		members := cg.Members(c)
		names := make([]string, len(members))
		for i, ri := range members {
			names[i] = a.Prog.Routines[ri].Name
		}
		comps[c] = ComponentInfo{
			Index:           c,
			Members:         names,
			CalleeFirstWave: cg.CalleeFirstWave(c),
			CallerFirstWave: cg.CallerFirstWave(c),
			Recursive:       cg.Recursive(c),
		}
	}
	return comps, cg.NumWaves()
}

// ProgramInfoOf inventories a loaded program for the load response.
// sxe is the canonical encoding the ID hashes.
func ProgramInfoOf(p *prog.Program, sxe []byte) ProgramInfo {
	info := ProgramInfo{ID: ProgramID(sxe), Instructions: p.NumInstructions()}
	for i, r := range p.Routines {
		info.Routines = append(info.Routines, RoutineInfo{
			Index:        i,
			Name:         r.Name,
			Entries:      len(r.Entries),
			Instructions: len(r.Code),
			AddressTaken: r.AddressTaken,
		})
	}
	return info
}

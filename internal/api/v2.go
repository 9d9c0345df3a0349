package api

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// SchemaVersionV2 identifies the second wire format: everything in
// spike.v1 plus the incremental re-analysis surface — POST /v1/patch
// and POST /v1/snapshot — and the optional "incremental" provenance
// block in the analysis document. v1 request and response shapes are
// unchanged; v2 is a strict superset (DESIGN.md §10).
const SchemaVersionV2 = "spike.v2"

// ParseOptionsKey inverts Options.Key: it maps a canonical option-key
// string (as persisted in snapshots and used in cache keys) back to
// the option set that produced it. Unrecognized keys — from a future
// format or a corrupt snapshot — are an error, never a silent default.
func ParseOptionsKey(key string) (Options, error) {
	for _, o := range []Options{
		{},
		{OpenWorld: true},
		{NoBranchNodes: true},
		{OpenWorld: true, NoBranchNodes: true},
	} {
		if o.Key() == key {
			return o, nil
		}
	}
	return Options{}, fmt.Errorf("unrecognized option key %q", key)
}

// IncrementalInfo is the provenance of an incremental re-analysis: how
// much of the previous result survived the edit. ReusedComponents +
// ResolvedComponents equals the call graph's component count.
type IncrementalInfo struct {
	// DirtyRoutines counts routines whose body changed between the base
	// program and the patched one.
	DirtyRoutines int `json:"dirty_routines"`

	// ReusedComponents counts call-graph components whose converged
	// facts were taken verbatim from the previous analysis;
	// ResolvedComponents counts those the solver re-ran.
	ReusedComponents   int `json:"reused_components"`
	ResolvedComponents int `json:"resolved_components"`
}

// IncrementalInfoOf converts core incremental stats to wire form.
func IncrementalInfoOf(st *core.IncrementalStats) IncrementalInfo {
	return IncrementalInfo{
		DirtyRoutines:      st.DirtyRoutines,
		ReusedComponents:   st.ReusedComponents,
		ResolvedComponents: st.ResolvedComponents,
	}
}

// RoutinePatch replaces one routine's body with newly assembled code.
// The body is single-routine assembly (no .routine/.start directives);
// call targets resolve against the patched program's routine names.
type RoutinePatch struct {
	Routine string `json:"routine"`
	Asm     string `json:"asm"`
}

// PatchRequest edits a loaded program and asks for an incremental
// re-analysis: the named routines' bodies are replaced, the result is
// registered as a new program (content-hash identity, like any load),
// and the analysis is derived from the base program's converged result
// by re-solving only the components the edit can affect.
type PatchRequest struct {
	// Program is the base program's ID. Its analysis under Options is
	// the warm start (computed on demand if not cached).
	Program string `json:"program"`

	Options Options `json:"options"`

	// Routines are the replacement bodies. Every named routine must
	// exist in the base program; patches cannot add or remove routines.
	Routines []RoutinePatch `json:"routines"`
}

// PatchResponse answers a PatchRequest. The analysis document is
// byte-identical to what a from-scratch analysis of the patched
// program would converge to, modulo the "_ns" timing fields.
type PatchResponse struct {
	PatchHeader
	Analysis AnalysisDoc `json:"analysis"`
}

// PatchHeader holds every field of a PatchResponse but the analysis
// document, which follows them on the wire.
type PatchHeader struct {
	SchemaVersion string `json:"schema_version"`

	// Base is the program the patch was applied to; Program describes
	// the patched program, now loaded under its own ID.
	Base    string      `json:"base"`
	Program ProgramInfo `json:"program"`

	Incremental IncrementalInfo `json:"incremental"`
}

// SnapshotRequest saves or loads a converged analysis in the binary
// snapshot format of internal/snapshot.
//
// Action "save" captures the analysis of (Program, Options) — computing
// it if needed — and returns the image inline, or writes it to Path on
// the daemon's filesystem when Path is set.
//
// Action "load" restores an analysis from a snapshot image (inline in
// Snapshot, or read from Path) and warms the analysis cache with it.
// The program the snapshot was captured from must already be loaded;
// the option set is taken from the snapshot itself. A Program or
// Options field that contradicts the snapshot is a conflict (409), not
// an override.
type SnapshotRequest struct {
	Action   string   `json:"action"`
	Program  string   `json:"program,omitempty"`
	Options  *Options `json:"options,omitempty"`
	Path     string   `json:"path,omitempty"`
	Snapshot []byte   `json:"snapshot,omitempty"`
}

// SnapshotResponse answers a SnapshotRequest.
type SnapshotResponse struct {
	SchemaVersion string `json:"schema_version"`
	Action        string `json:"action"`

	// Program and OptionKey identify the analysis the snapshot holds.
	Program   string `json:"program"`
	OptionKey string `json:"option_key"`

	// Bytes is the encoded image size. Save returns the image inline in
	// Snapshot unless Path directed it to the filesystem.
	Bytes    int    `json:"bytes"`
	Path     string `json:"path,omitempty"`
	Snapshot []byte `json:"snapshot,omitempty"`
}

// BuildVersionedDoc assembles the analysis document stamped with the
// given schema version, with the current contents of m as its metrics.
func BuildVersionedDoc(version string, a *core.Analysis, m *obs.Metrics) AnalysisDoc {
	return RenderDoc(version, a, m.Snapshot())
}

// RenderDoc assembles the analysis document stamped with the given
// schema version from an analysis and a metrics snapshot taken when it
// converged, so one analysis renders under either schema with the same
// telemetry. Under spike.v2 an incremental analysis carries its
// provenance in the document; under spike.v1 the field stays absent
// (v1 predates incrementality and its goldens are byte-pinned).
func RenderDoc(version string, a *core.Analysis, metrics obs.Snapshot) AnalysisDoc {
	doc := AnalysisDoc{
		SchemaVersion: version,
		Routines:      make([]RoutineSummary, 0, len(a.Prog.Routines)),
		Stats:         StatsOf(&a.Stats),
		Metrics:       metrics,
	}
	if version != SchemaVersion && a.Incremental != nil {
		info := IncrementalInfoOf(a.Incremental)
		doc.Incremental = &info
	}
	for ri := range a.Prog.Routines {
		doc.Routines = append(doc.Routines, SummaryOf(a, ri))
	}
	return doc
}

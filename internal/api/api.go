// Package api defines the versioned wire format of the analysis
// service: the request and response documents served by the daemon
// (internal/serve, run as `spike serve`), emitted by `spike analyze
// -format=json`, and recorded by the benchmark harness. Every response
// document carries a schema_version field; consumers reject versions
// they do not understand instead of misparsing them.
//
// Versioning policy (DESIGN.md §10): additions of new optional fields
// keep the version; any rename, removal or meaning change bumps it.
// The golden tests in this package pin the v1 wire format byte for
// byte — a diff there is a schema change and must be deliberate.
//
// Register sets render in the paper's notation ("{v0, t1}"); durations
// are nanoseconds under keys ending in "_ns" so consumers (and the
// golden tests) can identify nondeterministic fields mechanically.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// SchemaVersion identifies the wire format this package defines. It is
// stamped into every response document.
const SchemaVersion = "spike.v1"

// ProgramID is the content-hash identity of a loaded program: the
// SHA-256 of its canonical SXE encoding, prefixed with the hash name.
// Two loads of byte-identical programs — by path, upload or assembly —
// yield the same ID and share cached analyses.
func ProgramID(sxe []byte) string {
	sum := sha256.Sum256(sxe)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Options selects the analysis configuration a query runs against. The
// zero value is the library default (closed world, branch nodes on).
// Options is part of the analysis cache key: each distinct option set
// of one program is one cached analysis.
type Options struct {
	// OpenWorld selects the paper's §3.5 indirect-call assumptions
	// instead of the closed-world default.
	OpenWorld bool `json:"open_world,omitempty"`

	// NoBranchNodes disables §3.6 branch nodes.
	NoBranchNodes bool `json:"no_branch_nodes,omitempty"`
}

// Key returns the canonical cache-key fragment for this option set.
func (o Options) Key() string {
	return fmt.Sprintf("open_world=%t,no_branch_nodes=%t", o.OpenWorld, o.NoBranchNodes)
}

// AnalysisOptions translates the wire options into core options,
// appending any extra options (parallelism, observability) after them.
func (o Options) AnalysisOptions(extra ...core.Option) []core.Option {
	opts := []core.Option{core.WithBranchNodes(!o.NoBranchNodes)}
	if o.OpenWorld {
		opts = append(opts, core.WithOpenWorld())
	} else {
		opts = append(opts, core.WithClosedWorld())
	}
	return append(opts, extra...)
}

// ErrorResponse is the error envelope every endpoint returns alongside
// a non-2xx status.
type ErrorResponse struct {
	SchemaVersion string `json:"schema_version"`
	Error         string `json:"error"`
}

// LoadRequest loads a program into the daemon. Exactly one source
// field must be set.
type LoadRequest struct {
	// Path reads an SXE image (or, with a ".s" suffix, assembly text)
	// from the daemon's filesystem.
	Path string `json:"path,omitempty"`

	// Asm assembles the given assembly text.
	Asm string `json:"asm,omitempty"`

	// SXE carries a raw SXE image (base64 in JSON).
	SXE []byte `json:"sxe,omitempty"`
}

// RoutineInfo describes one routine of a loaded program.
type RoutineInfo struct {
	Index        int    `json:"index"`
	Name         string `json:"name"`
	Entries      int    `json:"entries"`
	Instructions int    `json:"instructions"`
	AddressTaken bool   `json:"address_taken,omitempty"`
}

// ProgramInfo describes a loaded program: its content-hash identity
// and routine inventory.
type ProgramInfo struct {
	ID           string        `json:"id"`
	Routines     []RoutineInfo `json:"routines"`
	Instructions int           `json:"instructions"`
}

// LoadResponse answers a LoadRequest.
type LoadResponse struct {
	SchemaVersion string      `json:"schema_version"`
	Program       ProgramInfo `json:"program"`
}

// SummaryRequest asks for one routine's interprocedural summary.
type SummaryRequest struct {
	Program string  `json:"program"`
	Options Options `json:"options"`
	Routine string  `json:"routine"`
}

// EntrySummary is the per-entrance half of a routine summary (§2).
type EntrySummary struct {
	CallUsed    string `json:"call_used"`
	CallDefined string `json:"call_defined"`
	CallKilled  string `json:"call_killed"`
	LiveAtEntry string `json:"live_at_entry"`
}

// ExitSummary is the per-exit half of a routine summary.
type ExitSummary struct {
	Block      int    `json:"block"`
	LiveAtExit string `json:"live_at_exit"`
}

// RoutineSummary is the wire form of one routine's five summary sets.
type RoutineSummary struct {
	Routine       string         `json:"routine"`
	Component     int            `json:"component"`
	Entries       []EntrySummary `json:"entries"`
	Exits         []ExitSummary  `json:"exits"`
	SavedRestored string         `json:"saved_restored,omitempty"`
}

// SummaryResponse answers a SummaryRequest.
type SummaryResponse struct {
	SchemaVersion string         `json:"schema_version"`
	Program       string         `json:"program"`
	Summary       RoutineSummary `json:"summary"`
}

// LivenessRequest asks for the registers live around one instruction.
type LivenessRequest struct {
	Program string  `json:"program"`
	Options Options `json:"options"`
	Routine string  `json:"routine"`
	Instr   int     `json:"instr"`
}

// LivenessPoint is per-point liveness: the registers live immediately
// before and after one instruction.
type LivenessPoint struct {
	Routine    string `json:"routine"`
	Instr      int    `json:"instr"`
	LiveBefore string `json:"live_before"`
	LiveAfter  string `json:"live_after"`
}

// LivenessResponse answers a LivenessRequest.
type LivenessResponse struct {
	SchemaVersion string        `json:"schema_version"`
	Program       string        `json:"program"`
	Point         LivenessPoint `json:"point"`
}

// CallSiteRequest asks for the interprocedural effect applied at one
// call instruction.
type CallSiteRequest struct {
	Program string  `json:"program"`
	Options Options `json:"options"`
	Routine string  `json:"routine"`
	Instr   int     `json:"instr"`
}

// CallSiteEffect is the summary a caller applies at a call site.
type CallSiteEffect struct {
	Routine string `json:"routine"`
	Instr   int    `json:"instr"`

	// Target names the callee of a direct call; empty for indirect
	// calls, which are marked Indirect and summarized by the §3.5
	// assumptions.
	Target   string `json:"target,omitempty"`
	Entry    int    `json:"entry,omitempty"`
	Indirect bool   `json:"indirect,omitempty"`

	Used    string `json:"used"`
	Defined string `json:"defined"`
	Killed  string `json:"killed"`
}

// CallSiteResponse answers a CallSiteRequest.
type CallSiteResponse struct {
	SchemaVersion string         `json:"schema_version"`
	Program       string         `json:"program"`
	CallSite      CallSiteEffect `json:"call_site"`
}

// CallGraphRequest asks for the call graph's SCC condensation and wave
// schedule.
type CallGraphRequest struct {
	Program string  `json:"program"`
	Options Options `json:"options"`
}

// ComponentInfo describes one strongly connected component of the call
// graph condensation.
type ComponentInfo struct {
	Index           int      `json:"index"`
	Members         []string `json:"members"`
	CalleeFirstWave int      `json:"callee_first_wave"`
	CallerFirstWave int      `json:"caller_first_wave"`
	Recursive       bool     `json:"recursive,omitempty"`
}

// CallGraphResponse answers a CallGraphRequest.
type CallGraphResponse struct {
	SchemaVersion string          `json:"schema_version"`
	Program       string          `json:"program"`
	Components    []ComponentInfo `json:"components"`
	Waves         int             `json:"waves"`
}

// AnalyzeRequest asks for the full analysis document of a program.
type AnalyzeRequest struct {
	Program string  `json:"program"`
	Options Options `json:"options"`
}

// Query is one element of a batch: a tagged union over the point-query
// kinds.
type Query struct {
	// Kind selects the query: "summary", "liveness" or "callsite".
	Kind    string `json:"kind"`
	Routine string `json:"routine"`
	Instr   int    `json:"instr,omitempty"`
}

// BatchRequest fans a list of queries over one program × option set.
type BatchRequest struct {
	Program string  `json:"program"`
	Options Options `json:"options"`
	Queries []Query `json:"queries"`
}

// QueryResult is one batch element's answer: exactly one of the payload
// pointers is set, or Error on a per-query failure (a bad query fails
// alone, not the batch).
type QueryResult struct {
	Kind     string          `json:"kind"`
	Error    string          `json:"error,omitempty"`
	Summary  *RoutineSummary `json:"summary,omitempty"`
	Liveness *LivenessPoint  `json:"liveness,omitempty"`
	CallSite *CallSiteEffect `json:"call_site,omitempty"`
}

// BatchResponse answers a BatchRequest, results parallel to the
// request's queries.
type BatchResponse struct {
	SchemaVersion string        `json:"schema_version"`
	Program       string        `json:"program"`
	Results       []QueryResult `json:"results"`
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	SchemaVersion string `json:"schema_version"`
	Status        string `json:"status"`
	Programs      int    `json:"programs"`
	Analyses      int    `json:"analyses"`
}

// MetricsResponse answers /metrics: the daemon's observability
// snapshot (per-endpoint latency histograms, cache hit/miss/eviction
// counters).
type MetricsResponse struct {
	SchemaVersion string       `json:"schema_version"`
	Metrics       obs.Snapshot `json:"metrics"`
}

// StageDuration attributes part of a request's latency to one named
// stage (cache lookup, analysis phase, ...), in span-tree recording
// order. Stages nest: Parent is the index in SlowQuery.Stages of the
// enclosing stage, -1 for a stage directly under the request, so only
// the top-level stages' durations add up to the request's.
type StageDuration struct {
	Name       string `json:"name"`
	DurationUS int64  `json:"duration_us"`
	Parent     int    `json:"parent"`
}

// SlowQuery is one slow-query log record: a request that exceeded the
// daemon's slow threshold, with the identity needed to reproduce it
// (program hash, option key) and its per-stage latency breakdown.
type SlowQuery struct {
	RequestID  uint64          `json:"request_id"`
	Route      string          `json:"route"`
	Program    string          `json:"program,omitempty"`
	OptionKey  string          `json:"option_key,omitempty"`
	Status     int             `json:"status"`
	DurationUS int64           `json:"duration_us"`
	Stages     []StageDuration `json:"stages,omitempty"`
}

// SlowLogResponse answers GET /debug/slowlog: the retained slow-query
// records, oldest first.
type SlowLogResponse struct {
	SchemaVersion string      `json:"schema_version"`
	ThresholdUS   int64       `json:"threshold_us"`
	Slow          []SlowQuery `json:"slow,omitempty"`
}

// TraceInfoResponse answers GET /debug/trace?format=info: the flight
// recorder's shape without the trace payload.
type TraceInfoResponse struct {
	SchemaVersion string `json:"schema_version"`
	Capacity      int    `json:"capacity"`
	Recorded      uint64 `json:"recorded"`
	Retained      int    `json:"retained"`
}

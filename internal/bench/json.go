package bench

import (
	"encoding/json"
	"io"

	"repro/internal/api"
	"repro/internal/obs"
)

// ResultDoc is the wire form of one benchmark result. Its stats reuse
// api.Stats — the same structure the CLI's -format=json document and
// the daemon's /v1/analyze endpoint carry — so one consumer parses all
// three.
type ResultDoc struct {
	Profile string `json:"profile"`
	Suite   string `json:"suite"`

	Stats         api.Stats `json:"stats"`
	NoBranchStats api.Stats `json:"no_branch_stats"`

	// The whole-program-CFG baseline the PSG replaces (Table 5).
	BaselineArcs int   `json:"baseline_arcs"`
	BaselineNs   int64 `json:"baseline_ns"`

	HeapBytes uint64       `json:"heap_bytes"`
	Metrics   obs.Snapshot `json:"metrics"`
}

// Doc converts the result to its wire form.
func (r *Result) Doc() ResultDoc {
	return ResultDoc{
		Profile:       r.Profile.Name,
		Suite:         r.Profile.Suite,
		Stats:         api.StatsOf(&r.Stats),
		NoBranchStats: api.StatsOf(&r.NoBranchStats),
		BaselineArcs:  r.BaselineArcs,
		BaselineNs:    r.BaselineTime.Nanoseconds(),
		HeapBytes:     r.HeapDelta,
		Metrics:       r.Metrics,
	}
}

// BenchDoc is the versioned document `spike bench -json` emits.
type BenchDoc struct {
	SchemaVersion string      `json:"schema_version"`
	Results       []ResultDoc `json:"results"`
}

// WriteJSON emits the results as one machine-readable document.
func WriteJSON(w io.Writer, results []*Result) error {
	doc := BenchDoc{SchemaVersion: api.SchemaVersion}
	for _, r := range results {
		doc.Results = append(doc.Results, r.Doc())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

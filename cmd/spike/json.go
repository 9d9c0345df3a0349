package main

import (
	"io"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
)

// writeJSON emits the analysis as the versioned api.AnalysisDoc — the
// same document, written by the same encoder, the daemon's /v1/analyze
// endpoint serves, so a consumer needs one parser for both. m is the
// registry the analysis ran with (never nil for the json format).
// optRep, when non-nil, is the -opt report, embedded under the
// document's "opt" key so the whole stdout stays one JSON value.
func writeJSON(w io.Writer, a *core.Analysis, m *obs.Metrics, optRep *api.OptReport) error {
	doc, err := api.AppendDoc(nil, api.SchemaVersion, a, m.Snapshot(), optRep, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(append(doc, '\n'))
	return err
}

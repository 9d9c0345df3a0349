package api

import (
	"fmt"

	"repro/internal/opt"
)

// OptReport is the wire form of opt.Report: what the optimizer did to a
// program, pass by pass.
type OptReport struct {
	DeadInstructions    int `json:"dead_instructions"`
	SpillsRemoved       int `json:"spills_removed"`
	SaveRestoreRewrites int `json:"save_restore_rewrites"`

	// Rounds counts analyze-transform iterations that performed work;
	// Reanalyses counts the warm-start incremental re-analyses folding
	// pass edits back into the summaries.
	Rounds     int `json:"rounds"`
	Reanalyses int `json:"reanalyses"`

	InstructionsBefore int `json:"instructions_before"`
	InstructionsAfter  int `json:"instructions_after"`

	// Verify is present when the caller asked for emulator verification
	// of the optimized program.
	Verify *VerifyResult `json:"verify,omitempty"`
}

// VerifyResult records an emulator differential run of the program
// before and after optimization.
type VerifyResult struct {
	// OutputIdentical reports whether both runs printed the same
	// sequence. The optimizer's contract is that it always holds; a
	// false here is a bug report, not a quality measure.
	OutputIdentical bool `json:"output_identical"`

	// StepsBefore and StepsAfter are the dynamic instruction counts.
	StepsBefore int64 `json:"steps_before"`
	StepsAfter  int64 `json:"steps_after"`

	// Improvement is the relative dynamic-instruction reduction as a
	// percentage string ("4.2%"), or "n/a" when the baseline executed
	// zero instructions.
	Improvement string `json:"improvement"`
}

// OptReportOf converts an optimizer report to wire form.
func OptReportOf(r *opt.Report) OptReport {
	return OptReport{
		DeadInstructions:    r.DeadInstructions,
		SpillsRemoved:       r.SpillsRemoved,
		SaveRestoreRewrites: r.SaveRestoreRewrites,
		Rounds:              r.Rounds,
		Reanalyses:          r.Reanalyses,
		InstructionsBefore:  r.InstructionsBefore,
		InstructionsAfter:   r.InstructionsAfter,
	}
}

// ImprovementPct formats the relative reduction from before to after as
// a percentage, returning "n/a" when before is zero (no baseline to
// compare against — the guard that keeps a trivial program from
// reporting NaN%).
func ImprovementPct(before, after int64) string {
	if before == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", (1-float64(after)/float64(before))*100)
}

// OptimizeRequest asks the daemon to run the Figure 1 optimizer over a
// loaded program (spike.v2 only). The result is registered as a new
// program under its own content-hash ID, its converged analysis is
// cached, and the whole response is cached against (Program, Options,
// knobs) — repeating a request is a cache hit.
type OptimizeRequest struct {
	// Program is the base program's ID.
	Program string `json:"program"`

	// Options selects the analysis world the passes consult, exactly as
	// for /v1/analyze.
	Options Options `json:"options"`

	// MaxRounds bounds the analyze-transform iterations; 0 means the
	// optimizer default.
	MaxRounds int `json:"max_rounds,omitempty"`

	// Pass toggles, mirroring opt.Options.
	NoDeadCode           bool `json:"no_dead_code,omitempty"`
	NoSpillRemoval       bool `json:"no_spill_removal,omitempty"`
	NoSaveRestore        bool `json:"no_save_restore,omitempty"`
	ConservativeLiveness bool `json:"conservative_liveness,omitempty"`

	// Verify runs the emulator over both programs and reports the
	// dynamic-instruction delta in the response.
	Verify bool `json:"verify,omitempty"`
}

// OptKey canonicalizes the optimizer knobs for cache keying, the same
// role Options.Key plays for the analysis options.
func (r *OptimizeRequest) OptKey() string {
	return fmt.Sprintf("rounds=%d,nodce=%t,nospill=%t,nosr=%t,cons=%t,verify=%t",
		r.MaxRounds, r.NoDeadCode, r.NoSpillRemoval, r.NoSaveRestore,
		r.ConservativeLiveness, r.Verify)
}

// OptOptions converts the request's knobs to opt.Options. The analysis
// config is supplied by the server (parallelism, metrics, tracing are
// its own concerns).
func (r *OptimizeRequest) OptOptions() opt.Options {
	return opt.Options{
		MaxRounds:            r.MaxRounds,
		NoDeadCode:           r.NoDeadCode,
		NoSpillRemoval:       r.NoSpillRemoval,
		NoSaveRestore:        r.NoSaveRestore,
		ConservativeLiveness: r.ConservativeLiveness,
	}
}

// OptimizeResponse answers an OptimizeRequest. The optimized program is
// loaded under its own ID (Program.ID), and Analysis is its converged
// analysis document — byte-identical to what /v1/analyze on the new ID
// would return, modulo "_ns" timings — so follow-up queries are warm.
type OptimizeResponse struct {
	OptimizeHeader
	Analysis AnalysisDoc `json:"analysis"`
}

// OptimizeHeader holds every field of an OptimizeResponse but the
// analysis document, which follows them on the wire.
type OptimizeHeader struct {
	SchemaVersion string `json:"schema_version"`

	// Base is the program the optimizer started from; Program describes
	// the optimized program, now loaded under its own ID.
	Base    string      `json:"base"`
	Program ProgramInfo `json:"program"`

	Report OptReport `json:"report"`
}

// Package snapshot gives a converged analysis a durable, versioned
// binary form: everything core.Analyze computed — the PSG slabs with
// their converged sets, the §3.4 frame facts, the callgraph
// condensation and wave schedules — keyed by the option set and the
// per-routine body hashes it is valid for. The routine summaries are
// not stored: restoring reads them off the node slab.
//
// The format is pointer-free and columnar, mirroring core.SavedState:
// encoding is a sequence of fixed-width array writes and decoding is
// array reads, so load cost is dominated by the one allocation per
// column rather than per-object graph reconstruction. Restoring is
// core.Rehydrate plus integrity checks: body hashes must match the
// offered program, the option key must match the requested options, and
// a condensation rebuilt from the program must equal the persisted one.
// Corrupt or truncated bytes are rejected with an error, never a panic
// (FuzzSnapshot holds the codec to that).
//
// Layout (all integers little-endian; uvarint/varint as in
// encoding/binary):
//
//	magic     "PSS2"            4 bytes
//	programID uvarint len + bytes (caller-supplied identity, may be empty)
//	optionKey uvarint len + bytes (core Config.Key)
//	routines  uvarint count, then per-routine columns:
//	  bodyHash       8 bytes each
//	  savedRestored  8 bytes each
//	  frameClean     1 byte each
//	  frameIndirect  1 byte each
//	  frameSaved     8 bytes each
//	condensation uvarint components, per component:
//	  uvarint members + uvarint routine indices,
//	  uvarint calleeWave, uvarint callerWave
//	nodes     uvarint count + columns: kind (1), routine (4), block (4),
//	  entryIdx (4), callTarget (4, signed), callEntry (4), unknown (1),
//	  mayUse/mayDef/mustDef/phase1Use (8 each)
//	edges     uvarint count + columns: kind (1), src (4), dst (4),
//	  mayUse/mayDef/mustDef (8 each)
//	checksum  uint32 (FNV-1a of everything before it)
package snapshot

import (
	"context"

	"repro/internal/core"
	"repro/internal/prog"
)

// Snapshot pairs the converged analysis state with the identity of the
// program it was computed from.
type Snapshot struct {
	// ProgramID is a caller-supplied program identity — the daemon
	// stores its content-addressed program hash here — carried through
	// the encoding verbatim. It may be empty; Restore does not
	// interpret it (the per-routine body hashes inside State are the
	// binding check).
	ProgramID string

	// State is the converged analysis state (see core.SavedState).
	State *core.SavedState
}

// Capture copies a converged analysis into a Snapshot. The snapshot
// shares nothing with the analysis.
func Capture(a *core.Analysis, programID string) *Snapshot {
	return &Snapshot{ProgramID: programID, State: a.Export()}
}

// OptionKey returns the core option key the state was computed under.
func (s *Snapshot) OptionKey() string { return s.State.OptionKey }

// Restore rebuilds a working analysis from the snapshot for p, which
// must be the very program the snapshot was captured from (checked by
// per-routine body hash; *core.ProgramMismatchError otherwise). The
// options must resolve to the snapshot's option key
// (*core.ConfigMismatchError otherwise).
func (s *Snapshot) Restore(p *prog.Program, opts ...core.Option) (*core.Analysis, error) {
	return core.Rehydrate(p, s.State, opts...)
}

// RestoreContext is Restore with cancellation between stages.
func (s *Snapshot) RestoreContext(ctx context.Context, p *prog.Program, opts ...core.Option) (*core.Analysis, error) {
	return core.RehydrateContext(ctx, p, s.State, opts...)
}

package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/progen"
)

func testAnalysis(t testing.TB, seed uint64, opts ...core.Option) (*core.Analysis, *Snapshot) {
	t.Helper()
	p := progen.Generate(progen.TestProfile(30), progen.DefaultOptions(seed))
	a, err := core.Analyze(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a, Capture(a, "sha256:test")
}

// TestRoundTrip pins the codec's canonical-form claim: capture → encode
// → decode → re-encode is byte-identical, and the decoded state is
// structurally equal to the captured one.
func TestRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		_, snap := testAnalysis(t, seed)
		enc := snap.Encode()
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if dec.ProgramID != snap.ProgramID {
			t.Fatalf("seed %d: program ID %q != %q", seed, dec.ProgramID, snap.ProgramID)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("seed %d: re-encode differs", seed)
		}
		if !reflect.DeepEqual(dec.State, snap.State) {
			t.Fatalf("seed %d: decoded state differs from the captured one", seed)
		}
	}
}

// TestRestoreEquivalent is the warm-start claim: a restored analysis
// answers every query identically to the original, and Reanalyze
// accepts it as a previous analysis with byte-identical results.
func TestRestoreEquivalent(t *testing.T) {
	for _, opts := range [][]core.Option{
		{core.WithClosedWorld()},
		{core.WithOpenWorld()},
		{core.WithOpenWorld(), core.WithBranchNodes(false)},
	} {
		a, snap := testAnalysis(t, 9, opts...)
		dec, err := Decode(snap.Encode())
		if err != nil {
			t.Fatal(err)
		}
		restored, err := dec.Restore(a.Prog, opts...)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if !reflect.DeepEqual(restored.Summaries, a.Summaries) {
			t.Fatal("restored summaries differ")
		}
		g, h := restored.PSG, a.PSG
		if len(g.Nodes) != len(h.Nodes) || len(g.Edges) != len(h.Edges) {
			t.Fatalf("restored PSG shape differs: %d/%d nodes, %d/%d edges",
				len(g.Nodes), len(h.Nodes), len(g.Edges), len(h.Edges))
		}
		for i := range h.Nodes {
			if g.Nodes[i] != h.Nodes[i] {
				t.Fatalf("restored node %d differs: %+v vs %+v", i, g.Nodes[i], h.Nodes[i])
			}
		}
		for i := range h.Edges {
			if g.Edges[i] != h.Edges[i] {
				t.Fatalf("restored edge %d differs: %+v vs %+v", i, g.Edges[i], h.Edges[i])
			}
		}

		// The restored analysis must serve as a Reanalyze warm start.
		mutant, desc := progen.Mutate(a.Prog, 1234)
		incFromRestored, err := core.Reanalyze(restored, mutant, opts...)
		if err != nil {
			t.Fatalf("%s: reanalyze from restored: %v", desc, err)
		}
		scratch, err := core.Analyze(mutant, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(incFromRestored.Summaries, scratch.Summaries) {
			t.Fatalf("%s: reanalyze from restored analysis diverges from scratch", desc)
		}
	}
}

// TestRestoreRejectsMismatch pins the typed errors: wrong options and
// wrong program are distinct, inspectable failures.
func TestRestoreRejectsMismatch(t *testing.T) {
	a, snap := testAnalysis(t, 13)
	dec, err := Decode(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var confErr *core.ConfigMismatchError
	if _, err := dec.Restore(a.Prog, core.WithOpenWorld()); !errors.As(err, &confErr) {
		t.Fatalf("wrong options: want ConfigMismatchError, got %v", err)
	}
	mutant, _ := progen.Mutate(a.Prog, 7)
	var progErr *core.ProgramMismatchError
	if _, err := dec.Restore(mutant); !errors.As(err, &progErr) {
		t.Fatalf("wrong program: want ProgramMismatchError, got %v", err)
	}
}

// TestDecodeRejectsCorruption corrupts a valid image two ways. A plain
// byte flip must always fail the checksum. A flip with the checksum
// recomputed gets past it by construction — then Decode and Restore
// must either reject it (structural validation) or produce a working
// analysis, but never panic: untrusted bytes reach this path through
// the daemon's snapshot-load endpoint.
func TestDecodeRejectsCorruption(t *testing.T) {
	a, snap := testAnalysis(t, 21)
	enc := snap.Encode()
	step := 1
	if len(enc) > 2048 {
		step = len(enc) / 2048
	}
	for i := 0; i < len(enc); i += step {
		corrupt := append([]byte(nil), enc...)
		corrupt[i] ^= 0x41
		if _, err := Decode(corrupt); err == nil {
			t.Fatalf("flipping byte %d passed the checksum", i)
		}
		fixChecksum(corrupt)
		dec, err := Decode(corrupt)
		if err != nil {
			continue
		}
		dec.Restore(a.Prog) // must not panic; error or success both fine
	}
	if _, err := Decode(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated image decoded cleanly")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty image decoded cleanly")
	}
}

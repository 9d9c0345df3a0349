package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSnapshotSaveLoad drives `spike snapshot save` then `load` end to
// end: the image round-trips, load reports the identity and option
// key, and -summaries prints from the restored analysis.
func TestSnapshotSaveLoad(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.s")
	snap := filepath.Join(dir, "p.snap")
	if err := os.WriteFile(in, []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dispatch([]string{"snapshot", "save", "-asm", "-open-world", in, snap}, io.Discard, io.Discard); err != nil {
		t.Fatalf("save: %v", err)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file: %v", err)
	}
	// Load without option flags takes the option set from the image.
	if err := dispatch([]string{"snapshot", "load", "-asm", "-summaries", in, snap}, io.Discard, io.Discard); err != nil {
		t.Fatalf("load: %v", err)
	}
	// Explicit contradicting flags are the typed mismatch.
	err := dispatch([]string{"snapshot", "load", "-asm", "-no-branch-nodes", in, snap}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "option mismatch") {
		t.Fatalf("load with wrong options: err = %v, want option mismatch", err)
	}
}

// TestSnapshotArgErrors pins the usage failures.
func TestSnapshotArgErrors(t *testing.T) {
	if err := dispatch([]string{"snapshot"}, io.Discard, io.Discard); err == nil {
		t.Error("no subcommand accepted")
	}
	if err := dispatch([]string{"snapshot", "rotate"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := dispatch([]string{"snapshot", "save", "just-one-arg"}, io.Discard, io.Discard); err == nil {
		t.Error("missing snapfile accepted")
	}
}

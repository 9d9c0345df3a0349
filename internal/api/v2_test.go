package api_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/sxe"
)

// TestParseOptionsKey pins the key grammar's invertibility: every
// option set round-trips through its key, and anything else is an
// error rather than a silent default.
func TestParseOptionsKey(t *testing.T) {
	for _, o := range []api.Options{
		{},
		{OpenWorld: true},
		{NoBranchNodes: true},
		{OpenWorld: true, NoBranchNodes: true},
	} {
		got, err := api.ParseOptionsKey(o.Key())
		if err != nil {
			t.Fatalf("ParseOptionsKey(%q): %v", o.Key(), err)
		}
		if got != o {
			t.Errorf("ParseOptionsKey(%q) = %+v, want %+v", o.Key(), got, o)
		}
	}
	for _, bad := range []string{"", "open_world=yes,no_branch_nodes=false", "v2"} {
		if _, err := api.ParseOptionsKey(bad); err == nil {
			t.Errorf("ParseOptionsKey(%q) accepted", bad)
		}
	}
}

// patchedDouble is the v2 golden edit: double gains a use of a1, so
// the patched program's summaries differ from the base fixture's.
const patchedDouble = `
  add v0, a0, a0
  add v0, v0, a1
  ret
`

// TestWireGoldenV2 pins the spike.v2 wire shapes — the patch and
// snapshot documents and the analysis document with its incremental
// provenance block — byte for byte, alongside (not instead of) the v1
// golden: v2 is a strict superset and the v1 bytes must not move.
func TestWireGoldenV2(t *testing.T) {
	p, err := prog.Assemble(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := sxe.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	baseID := api.ProgramID(canonical)
	base, err := core.Analyze(p, api.Options{}.AnalysisOptions(core.WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}

	patched := p.Clone()
	ri, ok := patched.Index("double")
	if !ok {
		t.Fatal("no double routine")
	}
	nr, err := prog.AssembleRoutine(patched, "double", patchedDouble)
	if err != nil {
		t.Fatal(err)
	}
	patched.Routines[ri] = nr
	patched.RebuildIndex()
	inc, err := core.Reanalyze(base, patched, api.Options{}.AnalysisOptions(core.WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Incremental == nil || inc.Incremental.DirtyRoutines != 1 {
		t.Fatalf("incremental stats = %+v, want 1 dirty routine", inc.Incremental)
	}
	patchedSXE, err := sxe.Encode(patched)
	if err != nil {
		t.Fatal(err)
	}
	info := api.ProgramInfoOf(patched, patchedSXE)

	doc := api.BuildVersionedDoc(api.SchemaVersionV2, inc, nil)
	doc.Stats.CFGBuildNs = 0
	doc.Stats.InitNs = 0
	doc.Stats.PSGBuildNs = 0
	doc.Stats.Phase1Ns = 0
	doc.Stats.Phase2Ns = 0
	doc.Stats.CallGraphBuildNs = 0
	doc.Stats.TotalNs = 0
	doc.Stats.TotalCPUNs = 0
	if doc.Incremental == nil {
		t.Fatal("v2 document of an incremental analysis lacks the incremental block")
	}

	wire := []struct {
		Name string `json:"name"`
		Doc  any    `json:"doc"`
	}{
		{"patch_request", api.PatchRequest{
			Program:  baseID,
			Routines: []api.RoutinePatch{{Routine: "double", Asm: patchedDouble}},
		}},
		{"patch_response", api.PatchResponse{
			PatchHeader: api.PatchHeader{
				SchemaVersion: api.SchemaVersionV2,
				Base:          baseID,
				Program:       info,
				Incremental:   api.IncrementalInfoOf(inc.Incremental),
			},
			Analysis: doc,
		}},
		// The snapshot image is pinned by its own codec (internal/
		// snapshot round-trip and fuzz tests); the wire golden pins the
		// envelope with placeholder bytes.
		{"snapshot_save_response", api.SnapshotResponse{
			SchemaVersion: api.SchemaVersionV2,
			Action:        "save",
			Program:       baseID,
			OptionKey:     api.Options{}.Key(),
			Bytes:         12,
			Snapshot:      []byte("binary-image"),
		}},
		{"snapshot_load_response", api.SnapshotResponse{
			SchemaVersion: api.SchemaVersionV2,
			Action:        "load",
			Program:       baseID,
			OptionKey:     api.Options{}.Key(),
			Bytes:         12,
		}},
		{"error_response", api.ErrorResponse{
			SchemaVersion: api.SchemaVersionV2,
			Error:         "core: option mismatch: analysis was computed with open_world=true,no_branch_nodes=false, request asks for open_world=false,no_branch_nodes=false",
		}},
	}

	got, err := json.MarshalIndent(wire, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "wire_v2.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("v2 wire format differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

package api_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/sxe"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testSrc is the golden fixture: two routines, a direct call, a dead
// argument — enough to exercise every summary field.
const testSrc = `
.start main
.routine main
  lda a0, 5(zero)
  lda a1, 9(zero)    ; dead: double ignores a1
  jsr double
  print v0
  halt
.routine double
  add v0, a0, a0
  ret
`

// TestProgramID pins the content-hash identity format: consumers store
// these IDs, so the prefix and encoding must never drift silently.
func TestProgramID(t *testing.T) {
	got := api.ProgramID([]byte("spike"))
	want := "sha256:798552d3924a30ba1defcdd9c1619ec2faaabe3b3e345806ca9458033b535b7b"
	if got != want {
		t.Errorf("ProgramID(\"spike\") = %q, want %q", got, want)
	}
	if api.ProgramID([]byte("spike")) != got {
		t.Error("ProgramID is not deterministic")
	}
}

// TestOptionsKey pins the cache-key fragment: a drift here silently
// splits or merges cached analyses.
func TestOptionsKey(t *testing.T) {
	for _, tc := range []struct {
		o    api.Options
		want string
	}{
		{api.Options{}, "open_world=false,no_branch_nodes=false"},
		{api.Options{OpenWorld: true}, "open_world=true,no_branch_nodes=false"},
		{api.Options{NoBranchNodes: true}, "open_world=false,no_branch_nodes=true"},
	} {
		if got := tc.o.Key(); got != tc.want {
			t.Errorf("Key(%+v) = %q, want %q", tc.o, got, tc.want)
		}
	}
}

// TestWireGolden pins the v1 wire format of every response document
// byte for byte. A diff here is a schema change: deliberate ones
// regenerate with -update and follow the versioning policy (additive
// fields keep spike.v1; renames, removals and meaning changes bump it).
func TestWireGolden(t *testing.T) {
	p, err := prog.Assemble(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := sxe.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p, api.Options{}.AnalysisOptions(core.WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	info := api.ProgramInfoOf(p, canonical)
	id := info.ID

	main, ok := p.Index("main")
	if !ok {
		t.Fatal("no main routine")
	}
	livPt, err := api.LivenessPointOf(a, main, 1)
	if err != nil {
		t.Fatal(err)
	}
	callEff, err := api.CallSiteEffectOf(a, main, 2) // the jsr
	if err != nil {
		t.Fatal(err)
	}
	comps, waves := api.CallGraphOf(a)

	// The full analysis document, with the wall-clock fields zeroed
	// (they are the only nondeterminism; the "_ns" suffix marks them).
	doc := api.BuildVersionedDoc(api.SchemaVersion, a, nil)
	doc.Stats.CFGBuildNs = 0
	doc.Stats.InitNs = 0
	doc.Stats.PSGBuildNs = 0
	doc.Stats.Phase1Ns = 0
	doc.Stats.Phase2Ns = 0
	doc.Stats.CallGraphBuildNs = 0
	doc.Stats.TotalNs = 0
	doc.Stats.TotalCPUNs = 0

	sum := api.SummaryOf(a, main)
	batchSum := api.SummaryOf(a, main)
	wire := []struct {
		Name string `json:"name"`
		Doc  any    `json:"doc"`
	}{
		{"load_response", api.LoadResponse{SchemaVersion: api.SchemaVersion, Program: info}},
		{"summary_response", api.SummaryResponse{SchemaVersion: api.SchemaVersion, Program: id, Summary: sum}},
		{"liveness_response", api.LivenessResponse{SchemaVersion: api.SchemaVersion, Program: id, Point: livPt}},
		{"callsite_response", api.CallSiteResponse{SchemaVersion: api.SchemaVersion, Program: id, CallSite: callEff}},
		{"callgraph_response", api.CallGraphResponse{SchemaVersion: api.SchemaVersion, Program: id, Components: comps, Waves: waves}},
		{"batch_response", api.BatchResponse{
			SchemaVersion: api.SchemaVersion,
			Program:       id,
			Results: []api.QueryResult{
				{Kind: "summary", Summary: &batchSum},
				{Kind: "liveness", Liveness: &livPt},
				{Kind: "callsite", CallSite: &callEff},
				{Kind: "summary", Error: `program has no routine "nope"`},
			},
		}},
		{"analysis_doc", doc},
		{"health_response", api.HealthResponse{SchemaVersion: api.SchemaVersion, Status: "ok", Programs: 1, Analyses: 2}},
		{"error_response", api.ErrorResponse{SchemaVersion: api.SchemaVersion, Error: `unknown program "sha256:0"`}},
	}

	got, err := json.MarshalIndent(wire, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "wire.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

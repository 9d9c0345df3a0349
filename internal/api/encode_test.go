package api_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/progen"
)

// FuzzAppendDoc holds AppendDoc to json.MarshalIndent of the document
// RenderDoc builds, at depth 0 and nested one level deep (MarshalIndent
// with a one-level prefix lays a value out as the field of an indented
// envelope). A fuzz input picks a generated program, renames one of its
// routines, and chooses the analysis world, branch nodes, a from-scratch
// or incremental analysis, the schema and whether an opt report rides
// along.
func FuzzAppendDoc(f *testing.F) {
	for i, name := range []string{
		"", "main2", `say "hi"`, `C:\dir\`, "<a>&b", "tab\there\x01\x1f\x7f",
		"\xff\xfe bad utf-8", "line\u2028sep\u2029", "é ok",
	} {
		f.Add(uint64(i+1), uint8(i*37), name)
	}
	f.Fuzz(func(t *testing.T, seed uint64, flags uint8, name string) {
		opts := progen.DefaultOptions(seed)
		if flags&1 != 0 {
			opts = progen.PaperOptOptions(seed)
		}
		p := progen.Generate(progen.TestProfile(3+int(seed%14)), opts)
		if name != "" {
			r := p.Routines[int(seed%uint64(len(p.Routines)))].Clone()
			r.Name = name
			p.Routines[int(seed%uint64(len(p.Routines)))] = r
			p.RebuildIndex()
		}
		o := api.Options{OpenWorld: flags&2 != 0, NoBranchNodes: flags&4 != 0}
		m := obs.NewMetrics()
		a, err := core.Analyze(p, o.AnalysisOptions(core.WithParallelism(1), core.WithMetrics(m))...)
		if err != nil {
			t.Fatal(err)
		}
		if flags&8 != 0 {
			edited, _ := progen.Mutate(p, seed)
			if a, err = core.Reanalyze(a, edited, o.AnalysisOptions(core.WithParallelism(1), core.WithMetrics(m))...); err != nil {
				t.Fatal(err)
			}
		}
		version := api.SchemaVersion
		if flags&16 != 0 {
			version = api.SchemaVersionV2
		}
		var opt *api.OptReport
		if flags&32 != 0 {
			opt = &api.OptReport{DeadInstructions: int(seed % 7), Rounds: 2, InstructionsBefore: 90, InstructionsAfter: 80}
			if flags&64 != 0 {
				opt.Verify = &api.VerifyResult{OutputIdentical: true, StepsBefore: 10, StepsAfter: 9, Improvement: "10.0%"}
			}
		}
		metrics := m.Snapshot()
		doc := api.RenderDoc(version, a, metrics)
		doc.Opt = opt
		for depth, prefix := range []string{"", "  "} {
			want, err := json.MarshalIndent(doc, prefix, "  ")
			if err != nil {
				t.Fatal(err)
			}
			got, err := api.AppendDoc([]byte("x"), version, a, metrics, opt, depth)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[1:], want) || got[0] != 'x' {
				t.Fatalf("depth %d: AppendDoc differs from json.MarshalIndent:\n got %q\nwant %q", depth, got, want)
			}
		}
	})
}

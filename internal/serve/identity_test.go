package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/sxe"
)

// reindent is the body json.MarshalIndent(v, "", "  ") plus a newline,
// the bytes every JSON route must write for v.
func reindent(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(api.AppendIndent(nil, data, 0), '\n')
}

// patchEdit edits a program by clone on edit; it returns the edited
// program and a description.
type patchEdit func(p *prog.Program, seed uint64) (*prog.Program, string)

func withRoutine(p *prog.Program, ri int, fn func(r *prog.Routine)) *prog.Program {
	q := p.ShallowClone()
	q.Routines[ri] = p.Routines[ri].Clone()
	fn(q.Routines[ri])
	return q
}

// firstWithTables is the first routine that has jump tables, or -1.
func firstWithTables(p *prog.Program) int {
	for ri, r := range p.Routines {
		if len(r.Tables) > 0 {
			return ri
		}
	}
	return -1
}

// TestPatchChainBytes chains patches of every shape a patch can take
// without changing the routine count — each progen mutation kind that
// keeps it, a jump table added ahead of routines with tables or grown
// in the first of them (their data-segment offsets shift), and a new
// entrance — and requires each response's raw bytes to equal
// json.MarshalIndent of the decoded response, and each new program ID
// to be the hash of Encode of the program the patch describes. An edit
// that drops an entrance a caller selects must be refused with the
// error Encode gives. The analyze and optimize routes' bytes on the
// chain's last program are held to the same rule, a cached optimize
// response included.
func TestPatchChainBytes(t *testing.T) {
	prof, _ := progen.ProfileByName("vc")
	p := progen.Generate(prof.Scale(0.02), progen.DefaultOptions(1))
	if ri := firstWithTables(&prog.Program{Routines: p.Routines[1:]}); ri < 0 {
		t.Fatal("no routine after routine 0 has jump tables: the table edits would shift no offset")
	}
	edits := []struct {
		name string
		edit patchEdit
	}{
		{"body-edit", func(p *prog.Program, seed uint64) (*prog.Program, string) {
			return progen.MutateKind(p, seed, progen.MutBodyEdit)
		}},
		{"add-call", func(p *prog.Program, seed uint64) (*prog.Program, string) {
			return progen.MutateKind(p, seed, progen.MutAddCall)
		}},
		{"remove-call", func(p *prog.Program, seed uint64) (*prog.Program, string) {
			return progen.MutateKind(p, seed, progen.MutRemoveCall)
		}},
		{"add-table", func(p *prog.Program, seed uint64) (*prog.Program, string) {
			return withRoutine(p, 0, func(r *prog.Routine) {
				r.Tables = append(r.Tables, []int{len(r.Code) - 1})
			}), "table added to routine 0"
		}},
		{"grow-table", func(p *prog.Program, seed uint64) (*prog.Program, string) {
			ri := firstWithTables(p)
			return withRoutine(p, ri, func(r *prog.Routine) {
				t0 := r.Tables[0]
				r.Tables[0] = append(t0[:len(t0):len(t0)], len(r.Code)-1)
			}), fmt.Sprintf("table 0 of routine %d grown", ri)
		}},
		{"add-entrance", func(p *prog.Program, seed uint64) (*prog.Program, string) {
			ri := int(seed % uint64(len(p.Routines)))
			return withRoutine(p, ri, func(r *prog.Routine) {
				r.Entries = append(r.Entries, len(r.Code)-1)
			}), fmt.Sprintf("entrance added to routine %d", ri)
		}},
	}

	_, c := newTestClient(t, Config{})
	img, err := sxe.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	id := c.mustLoadRequest(api.LoadRequest{SXE: img})
	for round := uint64(0); round < 2; round++ {
		for _, e := range edits {
			edited, desc := e.edit(p, 17*round+uint64(len(e.name)))
			req, want := patchOf(t, p, edited, id)
			status, body := c.post("/v1/patch", req)
			if status != http.StatusOK {
				t.Fatalf("%s (%s): status %d: %s", e.name, desc, status, body)
			}
			var resp api.PatchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, reindent(t, resp)) {
				t.Fatalf("%s (%s): response bytes differ from json.MarshalIndent of the response", e.name, desc)
			}
			wantImg, err := sxe.Encode(want)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Program.ID != api.ProgramID(wantImg) {
				t.Fatalf("%s (%s): patched program ID %s, want %s", e.name, desc, resp.Program.ID, api.ProgramID(wantImg))
			}
			p, id = want, resp.Program.ID
		}
	}

	// An entrance a caller selects cannot be dropped.
	callee, selected := -1, 0
	for _, r := range p.Routines {
		for _, in := range r.Code {
			if in.Op == isa.OpJsr && in.Imm > 0 {
				callee, selected = in.Target, int(in.Imm)
			}
		}
	}
	if callee < 0 {
		t.Fatal("no call selects a secondary entrance")
	}
	dropped := withRoutine(p, callee, func(r *prog.Routine) { r.Entries = r.Entries[:selected] })
	req, want := patchOf(t, p, dropped, id)
	_, encErr := sxe.Encode(want)
	if encErr == nil {
		t.Fatal("Encode accepted a program whose call selects a dropped entrance")
	}
	status, body := c.post("/v1/patch", req)
	var e api.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest || e.Error != "patched program: "+encErr.Error() {
		t.Errorf("dropped entrance: status %d, error %q; want 400, %q", status, e.Error, "patched program: "+encErr.Error())
	}

	status, body = c.post("/v1/analyze", api.AnalyzeRequest{Program: id})
	if status != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", status, body)
	}
	var doc api.AnalysisDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, reindent(t, doc)) {
		t.Error("analyze: response bytes differ from json.MarshalIndent of the document")
	}
	var first []byte
	for i := 0; i < 2; i++ {
		status, body = c.post("/v1/optimize", api.OptimizeRequest{Program: id})
		if status != http.StatusOK {
			t.Fatalf("optimize: status %d: %s", status, body)
		}
		var resp api.OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, reindent(t, resp)) {
			t.Errorf("optimize %d: response bytes differ from json.MarshalIndent of the response", i)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Error("cached optimize response differs from the first")
		}
	}
}

// TestConcurrentPatchesFromOneBase splices and renders from one base
// image and analysis in several requests at once, each a different
// body edit, and holds each response to the byte and ID rules of
// TestPatchChainBytes; under -race it checks that splicing and writing
// documents only read what the base's registry entries share.
func TestConcurrentPatchesFromOneBase(t *testing.T) {
	prof, _ := progen.ProfileByName("vc")
	p := progen.Generate(prof.Scale(0.02), progen.DefaultOptions(1))
	_, c := newTestClient(t, Config{})
	img, err := sxe.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	id := c.mustLoadRequest(api.LoadRequest{SXE: img})
	const n = 8
	reqs := make([]api.PatchRequest, n)
	wantIDs := make([]string, n)
	for i := range reqs {
		edited, _ := progen.MutateKind(p, uint64(i+1), progen.MutBodyEdit)
		var want *prog.Program
		reqs[i], want = patchOf(t, p, edited, id)
		wantImg, err := sxe.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs[i] = api.ProgramID(wantImg)
	}
	// The base analysis first, so the patches race on reading it rather
	// than on computing it.
	if status, body := c.post("/v1/analyze", api.AnalyzeRequest{Program: id}); status != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", status, body)
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, err := json.Marshal(reqs[i])
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := c.hc.Post(c.base+"/v1/patch", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("patch %d: status %d: %s", i, resp.StatusCode, buf.Bytes())
				return
			}
			var pr api.PatchResponse
			if err := json.Unmarshal(buf.Bytes(), &pr); err != nil {
				t.Error(err)
				return
			}
			data, err := json.Marshal(pr)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf.Bytes(), append(api.AppendIndent(nil, data, 0), '\n')) {
				t.Errorf("patch %d: response bytes differ from json.MarshalIndent of the response", i)
			}
			if pr.Program.ID != wantIDs[i] {
				t.Errorf("patch %d: program ID %s, want %s", i, pr.Program.ID, wantIDs[i])
			}
		}(i)
	}
	wg.Wait()
}

// patchOf turns an edit of p into the patch request against program id
// that replaces every routine the edit replaced, and returns the
// program that request describes: p with each such routine assembled
// from its patch text, as the daemon assembles it.
func patchOf(t *testing.T, p, edited *prog.Program, id string) (api.PatchRequest, *prog.Program) {
	t.Helper()
	req := api.PatchRequest{Program: id}
	want := p.ShallowClone()
	for ri, r := range edited.Routines {
		if r == p.Routines[ri] {
			continue
		}
		asm := routineAsm(edited, ri)
		req.Routines = append(req.Routines, api.RoutinePatch{Routine: r.Name, Asm: asm})
		nr, err := prog.AssembleRoutine(want, r.Name, asm)
		if err != nil {
			t.Fatalf("assemble %s: %v", r.Name, err)
		}
		nr.AddressTaken = nr.AddressTaken || p.Routines[ri].AddressTaken
		want.Routines[ri] = nr
	}
	if len(req.Routines) == 0 {
		t.Fatal("edit replaced no routine")
	}
	return req, want
}

// TestPatchWithOwnDisassemblyKeepsIdentity patches a routine that calls
// a secondary entrance with the routine's own disassembly, the text a
// client reads back from the daemon's program: the patched program is
// the base program, so the response names the base's ID and nothing is
// dirty.
func TestPatchWithOwnDisassemblyKeepsIdentity(t *testing.T) {
	vc, _ := progen.ProfileByName("vc")
	text := prog.Disassemble(progen.Generate(vc.Scale(0.02), progen.DefaultOptions(1)))
	p, err := prog.Assemble(text)
	if err != nil {
		t.Fatal(err)
	}
	caller := -1
	for ri, r := range p.Routines {
		for _, in := range r.Code {
			if in.Op == isa.OpJsr && in.Imm != 0 {
				caller = ri
			}
		}
	}
	if caller < 0 {
		t.Fatal("no routine calls a secondary entrance")
	}
	_, c := newTestClient(t, Config{})
	id := c.mustLoadRequest(api.LoadRequest{Asm: text})
	resp := c.mustPatch(id, api.Options{}, p.Routines[caller].Name, routineAsm(p, caller))
	if resp.Program.ID != id {
		t.Errorf("patching %s with its own disassembly gave program %s, want the base %s",
			p.Routines[caller].Name, resp.Program.ID, id)
	}
	if resp.Incremental.DirtyRoutines != 0 {
		t.Errorf("dirty routines = %d, want 0", resp.Incremental.DirtyRoutines)
	}
}

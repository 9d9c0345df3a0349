package sxe

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/progen"
)

// spliceEdit is one way to edit a program by clone on edit, as the
// daemon's patch route does: it returns the edited copy and what it did.
type spliceEdit func(p *prog.Program, seed uint64) (*prog.Program, string)

// replaceRoutine returns a shallow clone of p whose routine ri is a
// private copy, edited by fn.
func replaceRoutine(p *prog.Program, ri int, fn func(r *prog.Routine)) *prog.Program {
	q := p.ShallowClone()
	r := p.Routines[ri].Clone()
	fn(r)
	q.Routines[ri] = r
	return q
}

// spliceEdits lists the edit shapes Splice must encode as Encode does:
// every progen mutation kind (MutAddRoutine changes the routine count,
// so it covers the fall-back to a full encoding), a jump table added to
// or grown in an early routine (the tables of every later routine move
// in the data segment), a changed entrance count, and edits Encode
// refuses.
var spliceEdits = map[string]spliceEdit{
	"body-edit":     mutation(progen.MutBodyEdit),
	"add-call":      mutation(progen.MutAddCall),
	"remove-call":   mutation(progen.MutRemoveCall),
	"add-routine":   mutation(progen.MutAddRoutine),
	"add-table":     addTable,
	"grow-table":    growTable,
	"add-entrance":  addEntrance,
	"drop-entrance": dropEntrance,
	"bad-branch": func(p *prog.Program, seed uint64) (*prog.Program, string) {
		ri := int(seed % uint64(len(p.Routines)))
		return replaceRoutine(p, ri, func(r *prog.Routine) {
			r.Code[len(r.Code)-1] = isa.Instr{Op: isa.OpBr, Target: len(r.Code)}
		}), fmt.Sprintf("bad-branch %d", ri)
	},
	"bad-entry": func(p *prog.Program, seed uint64) (*prog.Program, string) {
		q := p.ShallowClone()
		q.Entry = len(q.Routines)
		return q, "bad-entry"
	},
}

func mutation(kind progen.Mutation) spliceEdit {
	return func(p *prog.Program, seed uint64) (*prog.Program, string) {
		return progen.MutateKind(p, seed, kind)
	}
}

// addTable gives the first routine (at or after a seeded start) a new
// one-target jump table no instruction uses.
func addTable(p *prog.Program, seed uint64) (*prog.Program, string) {
	ri := int(seed % uint64(len(p.Routines)))
	return replaceRoutine(p, ri, func(r *prog.Routine) {
		r.Tables = append(r.Tables, []int{len(r.Code) - 1})
	}), fmt.Sprintf("add-table %d", ri)
}

// growTable appends a target to the first routine with a table,
// searching from a seeded start; without one it adds a table instead.
func growTable(p *prog.Program, seed uint64) (*prog.Program, string) {
	n := len(p.Routines)
	for k := 0; k < n; k++ {
		ri := (int(seed%uint64(n)) + k) % n
		if len(p.Routines[ri].Tables) > 0 {
			return replaceRoutine(p, ri, func(r *prog.Routine) {
				r.Tables[0] = append(r.Tables[0][:len(r.Tables[0]):len(r.Tables[0])], 0)
			}), fmt.Sprintf("grow-table %d", ri)
		}
	}
	return addTable(p, seed)
}

// addEntrance gives a routine a second entrance at its first
// instruction: valid, but it changes the entrance count.
func addEntrance(p *prog.Program, seed uint64) (*prog.Program, string) {
	ri := int(seed % uint64(len(p.Routines)))
	return replaceRoutine(p, ri, func(r *prog.Routine) {
		r.Entries = append(r.Entries, 0)
	}), fmt.Sprintf("add-entrance %d", ri)
}

// dropEntrance drops the last entrance of the first routine with
// several, searching from a seeded start: every call that selects it
// becomes invalid. Without one, a routine loses its only entrance.
func dropEntrance(p *prog.Program, seed uint64) (*prog.Program, string) {
	n := len(p.Routines)
	ri := int(seed % uint64(n))
	for k := 0; k < n; k++ {
		if len(p.Routines[(ri+k)%n].Entries) > 1 {
			ri = (ri + k) % n
			break
		}
	}
	return replaceRoutine(p, ri, func(r *prog.Routine) {
		r.Entries = r.Entries[:len(r.Entries)-1]
	}), fmt.Sprintf("drop-entrance %d", ri)
}

// checkSplice requires img.Splice(q) to give exactly what
// EncodeImage(q) gives: the same bytes, the same layout, or the same
// error. It returns the spliced image (nil when q was refused).
func checkSplice(t *testing.T, img *Image, q *prog.Program, desc string) *Image {
	t.Helper()
	want, wantErr := EncodeImage(q)
	got, err := img.Splice(q)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Splice error %v, Encode error %v", desc, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !bytes.Equal(got.Bytes, want.Bytes) {
		t.Fatalf("%s: spliced image differs from Encode (%d vs %d bytes)", desc, len(got.Bytes), len(want.Bytes))
	}
	if cap(got.Bytes) != len(got.Bytes) {
		t.Errorf("%s: spliced image capacity %d, length %d", desc, cap(got.Bytes), len(got.Bytes))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: spliced layout differs from EncodeImage's", desc)
	}
	return got
}

// TestSpliceMatchesEncode splices every edit shape into images of
// generated programs in both generation worlds, and chains each valid
// edit with a body edit of its result, so a spliced image is itself
// spliced.
func TestSpliceMatchesEncode(t *testing.T) {
	var programs []*prog.Program
	for _, name := range []string{"gcc", "vc", "li", "perl"} {
		prof, _ := progen.ProfileByName(name)
		programs = append(programs,
			progen.Generate(prof.Scale(0.02), progen.DefaultOptions(3)),
			progen.Generate(prof.Scale(0.02), progen.PaperOptOptions(3)))
	}
	programs = append(programs, sampleProgram(), pseudoProgram())
	tables := 0
	for _, p := range programs {
		for _, r := range p.Routines {
			if len(r.Tables) > 0 {
				tables++
			}
		}
	}
	if tables < 10 {
		t.Fatalf("only %d routines with jump tables: the offset-shift edits cover nothing", tables)
	}
	// Each case below must occur, or the test covers less than it says.
	var refused, moved, reentered int
	for pi, p := range programs {
		base, err := EncodeImage(p)
		if err != nil {
			t.Fatal(err)
		}
		for name, edit := range spliceEdits {
			for seed := uint64(1); seed <= 3; seed++ {
				q, desc := edit(p, seed)
				desc = fmt.Sprintf("program %d: %s: %s", pi, name, desc)
				got := checkSplice(t, base, q, desc)
				if got == nil {
					refused++
					continue
				}
				for ri, r := range q.Routines {
					if ri >= len(p.Routines) {
						break
					}
					if r == p.Routines[ri] && len(r.Tables) > 0 && got.offs[ri] != base.offs[ri] {
						moved++
					}
					if r != p.Routines[ri] && len(r.Entries) != len(p.Routines[ri].Entries) {
						reentered++
					}
				}
				r, more := progen.MutateKind(q, seed+10, progen.MutBodyEdit)
				checkSplice(t, got, r, desc+", then "+more)
			}
		}
	}
	if refused == 0 || moved == 0 || reentered == 0 {
		t.Errorf("%d refused edits, %d shared records re-encoded at a moved table offset, %d valid entrance-count changes: want each > 0",
			refused, moved, reentered)
	}
}

// FuzzSplice splices seeded chains of edits into a generated program's
// image, each edit into the image of the one before.
func FuzzSplice(f *testing.F) {
	f.Add(uint64(1), uint64(7), []byte{0, 4, 5, 6})
	f.Add(uint64(2), uint64(9), []byte{1, 2, 7})
	f.Add(uint64(3), uint64(1), []byte{3, 8, 9})
	names := make([]string, 0, len(spliceEdits))
	for name := range spliceEdits {
		names = append(names, name)
	}
	// Map iteration order is random; the fuzzer needs a fixed one.
	slices.Sort(names)
	f.Fuzz(func(t *testing.T, genSeed, editSeed uint64, shapes []byte) {
		if len(shapes) > 8 {
			shapes = shapes[:8]
		}
		opts := progen.DefaultOptions(genSeed)
		if genSeed%2 == 1 {
			opts = progen.PaperOptOptions(genSeed)
		}
		p := progen.Generate(progen.TestProfile(8+int(genSeed%24)), opts)
		img, err := EncodeImage(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range shapes {
			name := names[int(s)%len(names)]
			q, desc := spliceEdits[name](p, editSeed+uint64(i))
			next := checkSplice(t, img, q, fmt.Sprintf("edit %d: %s", i, desc))
			if next != nil {
				p, img = q, next
			}
		}
	})
}

// BenchmarkSplice splices a one-routine body edit of acad at scale 0.5
// into the unedited program's image: BenchmarkEncode's program, with
// every other record copied.
func BenchmarkSplice(b *testing.B) {
	prof, _ := progen.ProfileByName("acad")
	p := progen.Generate(prof.Scale(0.5), progen.DefaultOptions(1))
	base, err := EncodeImage(p)
	if err != nil {
		b.Fatal(err)
	}
	q, _ := progen.MutateKind(p, 1, progen.MutBodyEdit)
	b.ReportAllocs()
	b.ResetTimer()
	var img *Image
	for i := 0; i < b.N; i++ {
		if img, err = base.Splice(q); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(img.Bytes)))
}

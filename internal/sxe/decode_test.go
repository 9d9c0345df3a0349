package sxe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/prog"
	"repro/internal/progen"
)

// twinTablesProgram has a routine with two identical jump tables, so an
// image may point the second table's offset at the first table's copy in
// the data segment and still decode to the same program.
func twinTablesProgram() *prog.Program {
	return prog.MustAssemble(`
.start main
.routine main
.table T0 = a, b
.table T1 = a, b
  lda t9, 1(zero)
  jmp t9, T0
a:
  jmp t9, T1
b:
  jsr leaf
  halt

.routine leaf
.addrtaken
  ret
`)
}

// uvarintEnd returns the position just past the uvarint at pos.
func uvarintEnd(data []byte, pos int) int {
	_, n := binary.Uvarint(data[pos:])
	return pos + n
}

// recordFields returns where routine ri's flags and its first table
// offset sit in img.
func recordFields(img *Image, ri int) (flags, firstOffset int) {
	data := img.Bytes
	pos := img.recs[ri]
	nameLen, n := binary.Uvarint(data[pos:])
	flags = pos + n + int(nameLen)
	pos = uvarintEnd(data, flags)
	ne, n := binary.Uvarint(data[pos:])
	for pos += n; ne > 0; ne-- {
		pos = uvarintEnd(data, pos)
	}
	nt, n := binary.Uvarint(data[pos:])
	for pos += n; nt > 0; nt-- {
		tlen, n := binary.Uvarint(data[pos:])
		for pos += n; tlen > 0; tlen-- {
			pos = uvarintEnd(data, pos)
		}
	}
	return flags, uvarintEnd(data, pos)
}

// withBytes returns a copy of a sealed image with data[from:to]
// replaced by repl and the checksum resealed.
func withBytes(data []byte, from, to int, repl ...byte) []byte {
	out := append(append(append([]byte(nil), data[:from]...), repl...), data[to:len(data)-4]...)
	return seal(out)
}

// noncanonicalImages returns images of twinTablesProgram that decode to
// that program but are not what EncodeImage writes for it.
func noncanonicalImages(t testing.TB) map[string][]byte {
	img, err := EncodeImage(twinTablesProgram())
	if err != nil {
		t.Fatal(err)
	}
	flags, off := recordFields(img, 0)
	data := img.Bytes
	if data[4] >= 0x80 || data[flags] != 0 || data[off] != 0 || data[off+1] != 3 {
		t.Fatalf("unexpected layout: entry %#x, flags %#x, offsets %#x %#x", data[4], data[flags], data[off], data[off+1])
	}
	return map[string][]byte{
		// The entry index as a two-byte uvarint.
		"overlong varint": withBytes(data, 4, 5, data[4]|0x80, 0),
		// A flag bit the format does not define.
		"extra flag bit": withBytes(data, flags, flags+1, 2),
		// Table T1's offset pointing at T0's identical copy.
		"non-canonical table offset": withBytes(data, off+1, off+2, 0),
		// No offsets at all: the tables are taken as encoded.
		"missing table offsets": withBytes(data, off-1, off+2, 0),
	}
}

// duplicateNames returns a checksum-valid image of routines "a" and
// "b" with b renamed a.
func duplicateNames(t testing.TB) []byte {
	img, err := EncodeImage(prog.MustAssemble(".routine a\n  jsr b\n  halt\n.routine b\n  ret\n"))
	if err != nil {
		t.Fatal(err)
	}
	name := img.recs[1] + 1
	if img.Bytes[name] != 'b' {
		t.Fatalf("routine 1's name is not at byte %d", name)
	}
	return withBytes(img.Bytes, name, name+1, 'a')
}

// TestDecodeRejectsDuplicateNames decodes a checksum-valid image whose
// two routines share a name: an error, where adding the second routine
// to the program would panic.
func TestDecodeRejectsDuplicateNames(t *testing.T) {
	const want = `sxe: routine 1: duplicate name "a"`
	if _, err := Decode(duplicateNames(t)); err == nil || err.Error() != want {
		t.Fatalf("Decode: error %v, want %s", err, want)
	}
}

// TestDecodeBoundsCodeCount decodes an image whose routine claims more
// instruction records than its remaining bytes can hold: truncated, and
// refused before a slice sized by the claim is allocated.
func TestDecodeBoundsCodeCount(t *testing.T) {
	const n = 1 << 20
	// Entry 0, no data, one routine "f": no flags, one entrance at 0, no
	// tables or offsets, then a code count of n over n padding bytes.
	body := append([]byte("SXE2\x00\x00\x01\x01f\x00\x01\x00\x00\x00"), binary.AppendUvarint(nil, n)...)
	data := seal(append(body, make([]byte, n)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTruncated) {
		t.Errorf("Decode: error %v, want %v", err, errTruncated)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > n {
		t.Errorf("Decode allocated %d bytes for a %d-byte image", grew, len(data))
	}
}

// TestDecodeImage requires DecodeImage to give EncodeImage's bytes and
// layout, keeping its input exactly when the input is those bytes: for
// images of generated programs it keeps them, and each non-canonical
// image of twinTablesProgram is re-encoded to the canonical one.
func TestDecodeImage(t *testing.T) {
	programs := []*prog.Program{sampleProgram(), pseudoProgram(), twinTablesProgram()}
	for _, name := range []string{"gcc", "vc", "li"} {
		prof, _ := progen.ProfileByName(name)
		programs = append(programs,
			progen.Generate(prof.Scale(0.02), progen.DefaultOptions(5)),
			progen.Generate(prof.Scale(0.02), progen.PaperOptOptions(5)))
	}
	for i, p := range programs {
		want, err := EncodeImage(p)
		if err != nil {
			t.Fatal(err)
		}
		if kept := checkDecodeImage(t, want.Bytes); !kept {
			t.Errorf("program %d: canonical image re-encoded", i)
		}
	}
	canonical, err := Encode(twinTablesProgram())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range noncanonicalImages(t) {
		if kept := checkDecodeImage(t, data); kept {
			t.Errorf("%s: image kept", name)
		}
		_, img, err := DecodeImage(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(img.Bytes, canonical) {
			t.Errorf("%s: image not re-encoded to the canonical bytes", name)
		}
	}
}

// checkDecodeImage decodes data with Decode and DecodeImage and fails
// unless both agree and, when data is accepted, the image DecodeImage
// returns has EncodeImage's bytes and layout, data re-encodes to an
// image that decodes to the same program, and DecodeImage kept data
// exactly when data is EncodeImage's bytes. It reports whether data was
// kept.
func checkDecodeImage(t *testing.T, data []byte) (kept bool) {
	t.Helper()
	p, err := Decode(data)
	q, img, err2 := DecodeImage(data)
	if fmt.Sprint(err) != fmt.Sprint(err2) {
		t.Fatalf("Decode error %v, DecodeImage error %v", err, err2)
	}
	if err != nil {
		return false
	}
	want, err := EncodeImage(q)
	if err != nil {
		t.Fatalf("accepted image does not re-encode: %v", err)
	}
	if !bytes.Equal(img.Bytes, want.Bytes) || !slices.Equal(img.recs, want.recs) || !slices.Equal(img.offs, want.offs) {
		t.Fatalf("DecodeImage's image differs from EncodeImage's")
	}
	if !slices.Equal(img.routines, q.Routines) {
		t.Fatalf("DecodeImage's image does not hold the decoded program's routines")
	}
	r, err := Decode(want.Bytes)
	if err != nil {
		t.Fatalf("re-encoded image rejected: %v", err)
	}
	for _, other := range []*prog.Program{q, r} {
		if err := sameProgram(p, other); err != nil {
			t.Fatal(err)
		}
	}
	kept = len(data) > 0 && &img.Bytes[0] == &data[0]
	if kept != bytes.Equal(data, want.Bytes) {
		t.Fatalf("image kept: %v, input canonical: %v", kept, !kept)
	}
	return kept
}

// sameProgram compares what an image says about a program: everything
// but the packed form of its jump tables.
func sameProgram(p, q *prog.Program) error {
	if p.Entry != q.Entry || len(p.Routines) != len(q.Routines) {
		return fmt.Errorf("entry %d of %d routines, against %d of %d", p.Entry, len(p.Routines), q.Entry, len(q.Routines))
	}
	for ri, r := range p.Routines {
		s := q.Routines[ri]
		if r.Name != s.Name || r.AddressTaken != s.AddressTaken || !slices.Equal(r.Entries, s.Entries) ||
			!slices.Equal(r.Code, s.Code) || !slices.EqualFunc(r.Tables, s.Tables, slices.Equal) {
			return fmt.Errorf("routine %d (%s) differs", ri, r.Name)
		}
	}
	return nil
}

// FuzzDecode decodes arbitrary bytes: Decode must never panic, and
// checkDecodeImage's agreements must hold for every image it accepts.
// Most mutations break the checksum, so each input is also decoded with
// its checksum resealed, which takes it past the check to the decoder
// proper.
func FuzzDecode(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		opts := progen.DefaultOptions(seed)
		if seed%2 == 0 {
			opts = progen.PaperOptOptions(seed)
		}
		data, err := Encode(progen.Generate(progen.TestProfile(4+int(seed)), opts))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, p := range []*prog.Program{sampleProgram(), pseudoProgram(), twinTablesProgram()} {
		data, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, data := range noncanonicalImages(f) {
		f.Add(data)
	}
	f.Add(duplicateNames(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeImage(t, data)
		if len(data) >= 4 {
			checkDecodeImage(t, seal(append([]byte(nil), data[:len(data)-4]...)))
		}
	})
}

// BenchmarkDecode decodes the images of the 16 Table 2 profiles at
// scale 0.1 (about a million instructions), all of them per iteration,
// and reports the time per decoded instruction.
func BenchmarkDecode(b *testing.B) {
	var images [][]byte
	instrs := 0
	for _, prof := range progen.Profiles {
		p := progen.Generate(prof.Scale(0.1), progen.DefaultOptions(1))
		img, err := Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		images = append(images, img)
		instrs += p.NumInstructions()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range images {
			if _, err := Decode(img); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*instrs), "ns/instr")
}

package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/progen"
)

// fixChecksum recomputes the FNV-1a trailer in place so structural
// corruption can be tested past the checksum gate.
func fixChecksum(img []byte) {
	if len(img) < len(Magic)+4 {
		return
	}
	h := fnv.New32a()
	h.Write(img[:len(img)-4])
	binary.LittleEndian.PutUint32(img[len(img)-4:], h.Sum32())
}

// FuzzSnapshot holds the codec to its safety claims on arbitrary
// input: Decode never panics; anything that decodes re-encodes
// canonically (encode → decode → re-encode is byte-identical from the
// first re-encode on); Restore of anything that decodes never panics,
// even though the bytes came from nowhere trustworthy; and an analysis
// Restore accepts serves as a warm start, so re-analyzing a body edit
// from it never panics either.
func FuzzSnapshot(f *testing.F) {
	var progs, mutants []*prog.Program
	for seed := uint64(1); seed <= 3; seed++ {
		p := progen.Generate(progen.TestProfile(8+int(seed)*4), progen.DefaultOptions(seed))
		a, err := core.Analyze(p)
		if err != nil {
			f.Fatal(err)
		}
		img := Capture(a, "sha256:fuzz").Encode()
		f.Add(img)
		// Seed structurally corrupt variants so the fuzzer starts past
		// the checksum gate.
		for _, i := range []int{8, len(img) / 3, len(img) / 2, len(img) - 8} {
			corrupt := append([]byte(nil), img...)
			corrupt[i] ^= 0xff
			fixChecksum(corrupt)
			f.Add(corrupt)
		}
		progs = append(progs, p)
		m, _ := progen.MutateKind(p, seed, progen.MutBodyEdit)
		mutants = append(mutants, m)
	}
	f.Add([]byte{})
	f.Add(Magic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		enc := s.Encode()
		s2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded image fails to decode: %v", err)
		}
		if !bytes.Equal(s2.Encode(), enc) {
			t.Fatal("encoding is not canonical: encode(decode(encode(s))) differs")
		}
		// Restoring against an arbitrary program must error or succeed,
		// never panic, and so must re-analyzing an edit from what it
		// accepts.
		for i, cp := range progs {
			if a, err := s.Restore(cp); err == nil {
				core.Reanalyze(a, mutants[i])
			}
		}
	})
}

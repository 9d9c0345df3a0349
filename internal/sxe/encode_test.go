package sxe

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/progen"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/encode_digests.txt")

const digestFile = "testdata/encode_digests.txt"

type digestCase struct {
	name string
	p    *prog.Program
}

// digestCases lists the programs whose canonical images are pinned:
// every Table 2 profile at scale 0.02 under both generation rate sets,
// plus the pseudo-op program.
func digestCases() []digestCase {
	var cases []digestCase
	for _, prof := range progen.Profiles {
		small := prof.Scale(0.02)
		cases = append(cases,
			digestCase{prof.Name + "/default", progen.Generate(small, progen.DefaultOptions(1))},
			digestCase{prof.Name + "/paperopt", progen.Generate(small, progen.PaperOptOptions(1))})
	}
	return append(cases, digestCase{"pseudo", pseudoProgram()})
}

// TestEncodeDigests pins the canonical SXE bytes: every program ID the
// daemon hands out is the SHA-256 of this encoding, so one changed byte
// would silently re-key every cache. Regenerate the digests with -update
// only for a deliberate format change. It also checks that images carry
// no spare capacity, which every holder of an image would retain.
func TestEncodeDigests(t *testing.T) {
	want := map[string]string{}
	if !*updateDigests {
		data, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, sum, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("%s: malformed line %q", digestFile, line)
			}
			want[name] = sum
		}
	}
	var out strings.Builder
	cases := digestCases()
	for _, c := range cases {
		img, err := Encode(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cap(img) != len(img) {
			t.Errorf("%s: image capacity %d, length %d", c.name, cap(img), len(img))
		}
		h := sha256.Sum256(img)
		got := hex.EncodeToString(h[:])
		fmt.Fprintf(&out, "%s %s\n", c.name, got)
		if !*updateDigests && got != want[c.name] {
			t.Errorf("%s: image sha256 %s, want %s", c.name, got, want[c.name])
		}
	}
	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(cases) {
		t.Errorf("%s has %d digests, want %d", digestFile, len(want), len(cases))
	}
}

// BenchmarkEncode encodes acad at scale 0.5 (about 1.1M instructions),
// the largest program the Table 2 suite holds as an image.
func BenchmarkEncode(b *testing.B) {
	prof, _ := progen.ProfileByName("acad")
	p := progen.Generate(prof.Scale(0.5), progen.DefaultOptions(1))
	b.ReportAllocs()
	b.ResetTimer()
	var img []byte
	for i := 0; i < b.N; i++ {
		var err error
		if img, err = Encode(p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(img)))
}

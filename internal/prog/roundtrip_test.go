package prog_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/progen"
)

// TestDisassembleRoundTripKeepsEntrances re-assembles the disassembly
// of generated programs whose calls reach secondary entrances: the
// text is a fixed point, every direct call keeps its target and its
// entrance selector, and at least one call selects an entrance other
// than 0.
func TestDisassembleRoundTripKeepsEntrances(t *testing.T) {
	vc, _ := progen.ProfileByName("vc")
	secondary := 0
	for seed := uint64(1); seed <= 3; seed++ {
		p := progen.Generate(vc.Scale(0.02), progen.DefaultOptions(seed))
		text := prog.Disassemble(p)
		q, err := prog.Assemble(text)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if prog.Disassemble(q) != text {
			t.Errorf("seed %d: the disassembly of the re-assembled program differs", seed)
		}
		for ri, r := range p.Routines {
			for i, in := range r.Code {
				if in.Op != isa.OpJsr {
					continue
				}
				if in.Imm != 0 {
					secondary++
				}
				if got := q.Routines[ri].Code[i]; got.Target != in.Target || got.Imm != in.Imm {
					t.Errorf("seed %d: %s[%d] calls %d entrance %d, want %d entrance %d",
						seed, r.Name, i, got.Target, got.Imm, in.Target, in.Imm)
				}
			}
		}
	}
	if secondary == 0 {
		t.Fatal("no generated call selects an entrance other than 0")
	}
}

// TestAssembleEntranceSelector pins the selector syntax: "jsr f, 1"
// calls f's second entrance, and a malformed or out-of-range selector
// is rejected.
func TestAssembleEntranceSelector(t *testing.T) {
	const src = `
.routine main
  jsr f, 1
  halt
.routine f
.entry L2
  lda v0, 1(zero)
  ret
L2:
  lda v0, 2(zero)
  ret
`
	p, err := prog.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if in := p.Routines[0].Code[0]; in.Op != isa.OpJsr || in.Imm != 1 {
		t.Fatalf("call = %+v, want jsr with selector 1", in)
	}
	for _, bad := range []string{"jsr f, x", "jsr f, -1", "jsr f, 2"} {
		if _, err := prog.Assemble(".routine main\n  " + bad + "\n  halt\n.routine f\n.entry L1\n  ret\nL1:\n  ret\n"); err == nil {
			t.Errorf("%q assembled", bad)
		}
	}
}

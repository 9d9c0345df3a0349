package check

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/regset"
)

// fuzzOptions keeps each fuzz execution cheap: a small emulator budget
// and two worker-pool sizes still cover every oracle.
var fuzzOptions = &Options{MaxSteps: 50_000, Parallelism: []int{1, 2}}

// FuzzAnalyze feeds assembler source through the whole harness: any
// program the assembler accepts must either be rejected by the
// analysis's own validation or survive all four oracles. The corpus
// under testdata/fuzz/FuzzAnalyze seeds the degenerate shapes that used
// to crash (empty programs, entrances at the last instruction) and the
// saved/restored edge cases.
func FuzzAnalyze(f *testing.F) {
	f.Add("")
	f.Add(tamperSrc)
	f.Add(".start main\n.routine main\n  halt\n")
	f.Add(".start main\n.routine main\n  jsr main\n")         // call return site past the last instruction
	f.Add(".start main\n.routine main\n  jsr main\n  halt\n") // call that can never return (MUST-DEF clamp)
	f.Add(".start main\n.routine main\n  beq a0, L\n  halt\nL:\n  jmp t0, ?\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8<<10 {
			t.Skip("oversized input")
		}
		p, err := prog.Assemble(src)
		if err != nil {
			t.Skip()
		}
		for _, v := range Program(p, fuzzOptions) {
			if v.Oracle == "analyze" {
				// The analysis may reject what the assembler accepted,
				// as long as it does so with an error, not a panic.
				t.Skip()
			}
			t.Fatalf("oracle violation: %s", v)
		}
	})
}

// savedRestoredRegs is the register menu the FuzzSavedRestored decoder
// draws from: the §3.4 candidates (s0, s1, fp), the spilled linkage
// registers (ra), and two caller-saved bystanders.
var savedRestoredRegs = [6]regset.Reg{
	regset.S0, regset.S1, regset.FP, regset.RA, regset.T0, regset.A0,
}

// decodeFrameBody turns fuzz bytes into a straight-line routine body of
// frame-discipline instructions — sp-relative stores and loads, sp
// adjustments, register clobbers — the shapes the §3.4 scan must
// classify. Straight-line code always reaches the final ret, so the
// dynamic oracle's value check exercises every decoded epilogue.
func decodeFrameBody(data []byte) []isa.Instr {
	var code []isa.Instr
	for i := 0; i+1 < len(data) && len(code) < 48; i += 2 {
		op, arg := data[i], data[i+1]
		r := savedRestoredRegs[int(arg)%len(savedRestoredRegs)]
		slot := int64(arg>>3%6) * 8
		switch op % 5 {
		case 0:
			code = append(code, isa.St(r, regset.SP, slot))
		case 1:
			code = append(code, isa.Ld(r, regset.SP, slot))
		case 2:
			code = append(code, isa.Lda(regset.SP, regset.SP, (int64(arg%5)-2)*16))
		case 3:
			code = append(code, isa.LdaImm(r, int64(arg)))
		case 4:
			code = append(code, isa.Print(r))
		}
	}
	return append(code, isa.Ret())
}

// FuzzSavedRestored aims the harness at the saved/restored scan: the
// decoded routine interleaves saves, restores, stack adjustments and
// clobbers in arbitrary orders — slot collisions, wrong-slot reloads,
// unbalanced frames — and the dynamic oracle verifies every claim the
// scan makes against the actually executing code.
func FuzzSavedRestored(f *testing.F) {
	// Seeds encode the satellite regressions: a slot stolen by a later
	// save (st s0,0; st ra,0; clobber s0; ld s0,0) and a reload from a
	// slot never written (st s0,0; clobber; ld s0,8).
	f.Add([]byte{0, 0, 0, 3, 3, 0, 1, 0})
	f.Add([]byte{0, 0, 3, 0, 1, 8})
	f.Add([]byte{2, 1, 0, 0, 0, 9, 3, 0, 3, 9, 1, 0, 1, 9, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := prog.New()
		fi := p.Add(prog.NewRoutine("f", decodeFrameBody(data)...))
		p.Entry = p.Add(prog.NewRoutine("main", isa.Jsr(fi), isa.Halt()))
		if err := p.Validate(); err != nil {
			t.Skip()
		}
		a, err := core.Analyze(p)
		if err != nil {
			t.Skip()
		}
		var vs []Violation
		vs = append(vs, Invariants(a)...)
		vs = append(vs, Dynamic(a, fuzzOptions.MaxSteps)...)
		for _, v := range vs {
			t.Fatalf("oracle violation: %s", v)
		}
	})
}

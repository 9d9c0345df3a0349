package opt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/regset"
)

// optimizeAndVerify optimizes the program and checks via the emulator
// that observable behaviour is preserved, returning the report.
func optimizeAndVerify(t *testing.T, p *prog.Program) (*prog.Program, *Report) {
	t.Helper()
	before, err := emu.Run(p.Clone(), 1_000_000)
	if err != nil {
		t.Fatalf("pre-run: %v", err)
	}
	out, rep, err := Optimize(p, DefaultOptions())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	after, err := emu.Run(out, 1_000_000)
	if err != nil {
		t.Fatalf("post-run: %v\n%s", err, prog.Disassemble(out))
	}
	if !emu.SameOutput(before, after) {
		t.Fatalf("output changed: %v → %v\n%s", before.Output, after.Output,
			prog.Disassemble(out))
	}
	return out, rep
}

// Figure 1(a): a value defined for return but never used by any caller.
func TestDeadReturnValue(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  jsr f
  halt
.routine f
  lda t0, 5(zero)
  print t0
  lda v0, 99(zero)   ; return value nobody reads
  ret
`)
	out, rep := optimizeAndVerify(t, p)
	if rep.DeadInstructions < 1 {
		t.Fatalf("dead return value not eliminated: %+v", rep)
	}
	f := out.Routine("f")
	for i := range f.Code {
		if f.Code[i].Op == isa.OpLda && f.Code[i].Dest == regset.V0 {
			t.Error("dead definition of v0 survived")
		}
	}
}

// Figure 1(b): an argument the callee never reads.
func TestDeadArgument(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda a0, 1(zero)    ; dead: f ignores a0
  lda a1, 2(zero)    ; live: f reads a1
  jsr f
  print v0
  halt
.routine f
  mov v0, a1
  ret
`)
	out, rep := optimizeAndVerify(t, p)
	if rep.DeadInstructions < 1 {
		t.Fatalf("dead argument not eliminated: %+v", rep)
	}
	m := out.Routine("main")
	sawA0, sawA1 := false, false
	for i := range m.Code {
		if m.Code[i].Op == isa.OpLda {
			switch m.Code[i].Dest {
			case regset.A0:
				sawA0 = true
			case regset.A1:
				sawA1 = true
			}
		}
	}
	if sawA0 {
		t.Error("dead argument setup of a0 survived")
	}
	if !sawA1 {
		t.Error("live argument setup of a1 was wrongly deleted")
	}
}

// Figure 1(c): spill around a call that does not kill the register.
func TestSpillRemoval(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda sp, -16(sp)
  lda t5, 42(zero)
  st  t5, 0(sp)      ; spill: compiler assumed the call kills t5
  jsr leaf
  ld  t5, 0(sp)      ; reload
  print t5
  print v0
  halt
.routine leaf
  lda v0, 7(zero)
  ret
`)
	out, rep := optimizeAndVerify(t, p)
	if rep.SpillsRemoved != 2 {
		t.Fatalf("SpillsRemoved = %d, want 2: %+v", rep.SpillsRemoved, rep)
	}
	m := out.Routine("main")
	for i := range m.Code {
		if m.Code[i].Op == isa.OpSt || m.Code[i].Op == isa.OpLd {
			t.Errorf("spill instruction survived: %v", m.Code[i].String())
		}
	}
}

// A spill around a call that DOES kill the register must stay.
func TestSpillKeptWhenCallKills(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda sp, -16(sp)
  lda t5, 42(zero)
  st  t5, 0(sp)
  jsr clobber
  ld  t5, 0(sp)
  print t5
  halt
.routine clobber
  lda t5, 0(zero)
  print t5          ; keeps the clobber live
  ret
`)
	_, rep := optimizeAndVerify(t, p)
	if rep.SpillsRemoved != 0 {
		t.Fatalf("spill around a killing call must stay: %+v", rep)
	}
}

// Figure 1(d): value in callee-saved s0 moves to a caller-saved
// register because the spanned call kills no temporaries.
func TestSaveRestoreElimination(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda a0, 10(zero)
  jsr f
  print v0
  halt
.routine f
  lda sp, -16(sp)
  st  ra, 8(sp)
  st  s0, 0(sp)      ; save
  mov s0, a0         ; value lives in s0 across the call
  jsr leaf
  add v0, v0, s0
  ld  s0, 0(sp)      ; restore
  ld  ra, 8(sp)
  lda sp, 16(sp)
  ret
.routine leaf
  lda v0, 1(zero)
  ret
`)
	out, rep := optimizeAndVerify(t, p)
	if rep.SaveRestoreRewrites != 1 {
		t.Fatalf("SaveRestoreRewrites = %d, want 1: %+v", rep.SaveRestoreRewrites, rep)
	}
	f := out.Routine("f")
	for i := range f.Code {
		in := &f.Code[i]
		if in.Uses().Contains(regset.S0) || in.Defs().Contains(regset.S0) {
			t.Errorf("s0 still referenced after rewrite: %s", in.String())
		}
	}
}

// The rewrite must not fire when the spanned call kills every
// temporary (e.g. an indirect call).
func TestSaveRestoreKeptAcrossIndirectCall(t *testing.T) {
	p := prog.New()
	cb := prog.NewRoutine("cb",
		isa.LdaImm(regset.V0, 1),
		isa.Ret(),
	)
	main := prog.NewRoutine("main",
		isa.LdaImm(regset.A0, 10),
		isa.Jsr(2),
		isa.Print(regset.V0),
		isa.Halt(),
	)
	f := prog.NewRoutine("f",
		isa.Lda(regset.SP, regset.SP, -16),
		isa.St(regset.RA, regset.SP, 8),
		isa.St(regset.S0, regset.SP, 0),
		isa.Mov(regset.S0, regset.A0),
		isa.Instr{Op: isa.OpNop}, // patched to lda pv, <cb>
		isa.JsrInd(regset.PV),
		isa.Bin(isa.OpAdd, regset.V0, regset.V0, regset.S0),
		isa.Ld(regset.S0, regset.SP, 0),
		isa.Ld(regset.RA, regset.SP, 8),
		isa.Lda(regset.SP, regset.SP, 16),
		isa.Ret(),
	)
	cb.AddressTaken = true
	ci := p.Add(cb)
	p.Add(main)
	p.Add(f)
	p.Entry = 1
	f.Code[4] = isa.LdaImm(regset.PV, p.RoutineAddr(ci))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	_, rep := optimizeAndVerify(t, p)
	if rep.SaveRestoreRewrites != 0 {
		t.Fatalf("rewrite across indirect call must not fire: %+v", rep)
	}
}

// Recursive routines must not adopt a caller-saved register: the
// recursion itself would clobber it.
func TestSaveRestoreKeptInRecursion(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda a0, 4(zero)
  jsr f
  print v0
  halt
.routine f
  bne a0, rec
  lda v0, 0(zero)
  ret
rec:
  lda sp, -16(sp)
  st  ra, 8(sp)
  st  s0, 0(sp)
  mov s0, a0
  lda t0, -1(zero)
  add a0, a0, t0
  jsr f
  add v0, v0, s0
  ld  s0, 0(sp)
  ld  ra, 8(sp)
  lda sp, 16(sp)
  ret
`)
	_, rep := optimizeAndVerify(t, p)
	if rep.SaveRestoreRewrites != 0 {
		t.Fatalf("recursive routine must keep its save/restore: %+v", rep)
	}
}

func TestDeadCodeCascades(t *testing.T) {
	// t1 feeds only t2; t2 feeds nothing: both die across rounds.
	p := prog.MustAssemble(`
.start main
.routine main
  lda t1, 1(zero)
  add t2, t1, t1
  lda t3, 3(zero)
  print t3
  halt
`)
	out, rep := optimizeAndVerify(t, p)
	if rep.DeadInstructions != 2 {
		t.Fatalf("DeadInstructions = %d, want 2", rep.DeadInstructions)
	}
	if n := len(out.Routine("main").Code); n != 3 {
		t.Errorf("main has %d instructions, want 3", n)
	}
}

func TestCompactRemapsBranchesAndTables(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
.table T0 = a, b
  lda t9, 1(zero)
  lda t4, 9(zero)   ; dead
  jmp t9, T0
a:
  lda t1, 100(zero)
  print t1
  halt
b:
  lda t2, 200(zero)
  print t2
  halt
`)
	out, rep := optimizeAndVerify(t, p)
	if rep.DeadInstructions != 1 {
		t.Fatalf("DeadInstructions = %d, want 1", rep.DeadInstructions)
	}
	m := out.Routine("main")
	// Table targets must have shifted down by one.
	if m.Tables[0][0] != 2 || m.Tables[0][1] != 5 {
		t.Errorf("tables not remapped: %v", m.Tables[0])
	}
}

func TestCompactRemapsFunctionPointers(t *testing.T) {
	p := prog.New()
	cb := prog.NewRoutine("cb",
		isa.LdaImm(regset.T7, 1), // dead (t7 unused): deleting shifts cb's entry
		isa.LdaImm(regset.V0, 55),
		isa.Ret(),
	)
	cb.AddressTaken = true
	main := prog.NewRoutine("main",
		isa.Instr{Op: isa.OpNop}, // patched to lda pv, <cb>
		isa.JsrInd(regset.PV),
		isa.Print(regset.V0),
		isa.Halt(),
	)
	ci := p.Add(cb)
	mi := p.Add(main)
	p.Entry = mi
	main.Code[0] = isa.LdaImm(regset.PV, p.RoutineAddr(ci))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out, _ := optimizeAndVerify(t, p)
	_ = out
}

func TestOptimizeIdempotent(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda t0, 1(zero)
  lda t1, 2(zero)   ; dead
  print t0
  halt
`)
	once, rep1, err := Optimize(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	twice, rep2, err := Optimize(once, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep1.DeadInstructions != 1 {
		t.Errorf("first pass removed %d", rep1.DeadInstructions)
	}
	if rep2.Removed() != 0 {
		t.Errorf("second pass should be a no-op, removed %d", rep2.Removed())
	}
	if twice.NumInstructions() != once.NumInstructions() {
		t.Error("idempotence violated")
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda t1, 2(zero)   ; dead
  halt
`)
	before := p.NumInstructions()
	if _, _, err := Optimize(p, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if p.NumInstructions() != before {
		t.Error("Optimize mutated its input")
	}
}

// answers renders every summary and per-instruction liveness query of
// an analysis.
func answers(a *core.Analysis) string {
	var b strings.Builder
	for ri, r := range a.Prog.Routines {
		fmt.Fprintf(&b, "%+v\n", a.Summary(ri))
		for i := range r.Code {
			before, after, err := a.LivenessAt(ri, i)
			fmt.Fprintf(&b, "%d/%d %v %v %v\n", ri, i, before, after, err)
		}
	}
	return b.String()
}

// TestOptimizeAnalyzedMatchesAnalyze pins the analysis OptimizeAnalyzed
// returns, the warm-start loop's last, which the daemon caches as the
// optimized program's own: it answers every summary and liveness query
// and reports every structural count exactly as a from-scratch analysis
// of the optimized program does, in both worlds.
func TestOptimizeAnalyzedMatchesAnalyze(t *testing.T) {
	worlds := map[string]core.Config{"closed": core.DefaultConfig(), "open": core.PaperConfig()}
	for i, name := range []string{"compress", "li", "gcc", "perl", "vc", "winword"} {
		prof, _ := progen.ProfileByName(name)
		p := progen.Generate(prof.Scale(0.05), progen.PaperOptOptions(uint64(i+1)))
		for world, conf := range worlds {
			opts := DefaultOptions()
			opts.Analysis = conf
			out, got, rep, err := OptimizeAnalyzed(p, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, world, err)
			}
			if rep.Reanalyses == 0 {
				t.Fatalf("%s %s: no re-analysis ran", name, world)
			}
			want, err := core.Analyze(out, core.WithConfig(conf))
			if err != nil {
				t.Fatalf("%s %s: %v", name, world, err)
			}
			type counts struct{ nodes, edges, blocks, arcs, instrs int }
			gs, ws := &got.Stats, &want.Stats
			if g, w := (counts{gs.PSGNodes, gs.PSGEdges, gs.BasicBlocks, gs.CFGArcs, gs.Instructions}),
				(counts{ws.PSGNodes, ws.PSGEdges, ws.BasicBlocks, ws.CFGArcs, ws.Instructions}); g != w {
				t.Errorf("%s %s: counts %+v, want %+v", name, world, g, w)
			}
			if answers(got) != answers(want) {
				t.Errorf("%s %s: the returned analysis answers differently from Analyze(out)", name, world)
			}
		}
	}
}

// TestOptimizeFromMatchesOptimize pins OptimizeFrom's contract on a
// generated program and on one holding nops (so the compaction
// re-analysis runs): started from a caller's analysis of the input, it
// produces Optimize's bytes and report, leaves the input program as it
// was, and leaves the caller's analysis answering every summary and
// liveness query as a fresh analysis of the input does.
func TestOptimizeFromMatchesOptimize(t *testing.T) {
	prof, _ := progen.ProfileByName("li")
	withNops := prog.MustAssemble(`
.start main
.routine main
  nop
  lda a0, 5(zero)
  lda a1, 9(zero)   ; dead: double ignores a1
  nop
  jsr double
  print v0
  halt
.routine double
  beq a0, done
  nop
  add v0, a0, a0
done:
  nop
  ret
`)
	for name, p := range map[string]*prog.Program{
		"li":   progen.Generate(prof.Scale(0.1), progen.PaperOptOptions(3)),
		"nops": withNops,
	} {
		t.Run(name, func(t *testing.T) {
			want, wantRep, err := Optimize(p, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Analyze(p.Clone())
			if err != nil {
				t.Fatal(err)
			}
			prev, err := core.Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			input := prog.Disassemble(p)
			got, _, gotRep, err := OptimizeFrom(prev, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if prog.Disassemble(got) != prog.Disassemble(want) || *gotRep != *wantRep {
				t.Errorf("OptimizeFrom differs from Optimize: report %+v, want %+v", gotRep, wantRep)
			}
			if prog.Disassemble(p) != input {
				t.Error("OptimizeFrom modified the input program")
			}
			if answers(prev) != answers(ref) {
				t.Error("OptimizeFrom modified the caller's analysis")
			}
		})
	}
}

func TestStoresAndPrintsNeverDeleted(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda t0, 5(zero)
  st  t0, -8(sp)
  ld  t1, -8(sp)
  print t1
  halt
`)
	out, _ := optimizeAndVerify(t, p)
	ops := map[isa.Opcode]bool{}
	for _, in := range out.Routine("main").Code {
		ops[in.Op] = true
	}
	for _, op := range []isa.Opcode{isa.OpSt, isa.OpLd, isa.OpPrint} {
		if !ops[op] {
			t.Errorf("%v wrongly deleted", op)
		}
	}
}

func TestPassTogglesRespected(t *testing.T) {
	src := `
.start main
.routine main
  lda t5, 42(zero)
  st  t5, -8(sp)
  jsr leaf
  ld  t5, -8(sp)
  print t5
  halt
.routine leaf
  lda v0, 7(zero)   ; dead (v0 unread by main)
  ret
`
	opts := DefaultOptions()
	opts.NoSpillRemoval = true
	out, rep, err := Optimize(prog.MustAssemble(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpillsRemoved != 0 {
		t.Error("spill removal ran despite being disabled")
	}
	if rep.DeadInstructions == 0 {
		t.Error("dead-code elimination should still run")
	}
	_ = out

	opts = DefaultOptions()
	opts.NoDeadCode = true
	_, rep, err = Optimize(prog.MustAssemble(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadInstructions != 0 {
		t.Error("dead-code elimination ran despite being disabled")
	}
}

func TestSummarizeProducesPseudoForm(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  lda a0, 3(zero)
  jsr f
  print v0
  halt
.routine f
  mov v0, a0
  ret
`)
	a, err := core.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(a)
	if err := s.Validate(); err != nil {
		t.Fatalf("summarized program invalid: %v", err)
	}
	m := s.Routine("main")
	if m.Code[0].Op != isa.OpEntry {
		t.Errorf("main must start with an entry marker, got %v", m.Code[0].Op)
	}
	var sum *isa.Instr
	for i := range m.Code {
		if m.Code[i].Op == isa.OpCallSummary {
			sum = &m.Code[i]
		}
		if m.Code[i].Op == isa.OpJsr || m.Code[i].Op == isa.OpJsrInd {
			t.Error("raw call survived summarization")
		}
	}
	if sum == nil {
		t.Fatal("no call-summary instruction")
	}
	if !sum.Use.Contains(regset.A0) {
		t.Errorf("call summary must use a0: %v", sum.Use)
	}
	if !sum.Def.Contains(regset.V0) {
		t.Errorf("call summary must define v0: %v", sum.Def)
	}
	f := s.Routine("f")
	last := f.Code[len(f.Code)-1]
	if last.Op != isa.OpRet {
		t.Fatalf("f must end with ret, got %v", last.Op)
	}
	if f.Code[len(f.Code)-2].Op != isa.OpExit {
		t.Error("exit marker missing before ret")
	}
	if !f.Code[len(f.Code)-2].Use.Contains(regset.V0) {
		t.Errorf("f's exit marker must use v0: %v", f.Code[len(f.Code)-2].Use)
	}
}

func TestSummarizeRemapsBranches(t *testing.T) {
	p := prog.MustAssemble(`
.start main
.routine main
  jsr f
  halt
.routine f
  beq a0, done
  lda v0, 1(zero)
done:
  ret
`)
	a, err := core.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(a)
	f := s.Routine("f")
	// The branch must now land on the exit marker before the ret.
	beq := f.Code[1] // entry marker shifted everything by one
	if beq.Op != isa.OpBeq {
		t.Fatalf("expected beq at index 1, got %v", beq.Op)
	}
	if f.Code[beq.Target].Op != isa.OpExit {
		t.Errorf("branch should land on exit marker, lands on %v", f.Code[beq.Target].Op)
	}
}

// A non-conformant address-taken routine (it reads t5, which the
// calling standard says an unknown callee may not depend on) must be
// protected by the closed-world configuration: the caller's definition
// of t5 stays. The paper's open-world assumption knowingly misses this
// (§3.5); see examples/indirect.
func TestClosedWorldProtectsNonConformantIndirect(t *testing.T) {
	src := `
.start main
.routine main
  lda t5, 42(zero)
  jsri pv
  print v0
  halt
.routine handler
.addrtaken
  add v0, t5, t5
  ret
`
	p := prog.MustAssemble(src)
	out, rep, err := Optimize(p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadInstructions != 0 {
		t.Fatalf("closed world must keep t5's definition: %v\n%s",
			rep, prog.Disassemble(out))
	}

	// The open-world pipeline removes it — the §3.5 caveat.
	openOpts := DefaultOptions()
	openOpts.Analysis = core.PaperConfig()
	_, rep, err = Optimize(prog.MustAssemble(src), openOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadInstructions == 0 {
		t.Error("open world should consider t5's definition dead (the documented §3.5 assumption)")
	}
}

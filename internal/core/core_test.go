package core

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/regset"
)

// paperRegs masks results down to the registers the paper's examples
// name (R0–R3), hiding the ra/sp bookkeeping our concrete encodings add.
var paperRegs = regset.Of(regset.R0, regset.R1, regset.R2, regset.R3)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	p, err := prog.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	a, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a
}

// figure2Src encodes a program with the structure and dataflow results
// of the paper's Figure 2: P1 and P3 call P2.
//
//	P1: defines R0 and R1, calls P2, then uses R0.
//	P2: uses R1 (defining R2), conditionally defines R3.
//	P3: defines R1, calls P2.
const figure2Src = `
.start main
.routine main
  jsr p1
  jsr p3
  halt

.routine p1
  lda r0, 1(zero)
  lda r1, 2(zero)
  jsr p2
  print r0
  ret

.routine p2
  mov r2, r1
  beq r2, skip
  lda r3, 3(zero)
skip:
  ret

.routine p3
  lda r1, 4(zero)
  jsr p2
  ret
`

func TestFigure2Phase1Summaries(t *testing.T) {
	a := analyze(t, figure2Src)
	p := a.Prog

	check := func(name string, wantUsed, wantDefined, wantKilled regset.Set) {
		t.Helper()
		ri, _ := p.Index(name)
		cs := a.CallSummaryFor(ri, 0)
		used := cs.Used
		defined := cs.Defined
		killed := cs.Killed
		if got := used.Intersect(paperRegs); got != wantUsed {
			t.Errorf("%s: call-used = %v, want %v", name, got, wantUsed)
		}
		if got := defined.Intersect(paperRegs); got != wantDefined {
			t.Errorf("%s: call-defined = %v, want %v", name, got, wantDefined)
		}
		if got := killed.Intersect(paperRegs); got != wantKilled {
			t.Errorf("%s: call-killed = %v, want %v", name, got, wantKilled)
		}
	}

	// §3.2: the paper's converged sets for Figure 2.
	check("p1",
		regset.Empty,
		regset.Of(regset.R0, regset.R1, regset.R2),
		regset.Of(regset.R0, regset.R1, regset.R2, regset.R3))
	check("p2",
		regset.Of(regset.R1),
		regset.Of(regset.R2),
		regset.Of(regset.R2, regset.R3))
	check("p3",
		regset.Empty,
		regset.Of(regset.R1, regset.R2),
		regset.Of(regset.R1, regset.R2, regset.R3))
}

func TestFigure2Phase2Liveness(t *testing.T) {
	a := analyze(t, figure2Src)
	p := a.Prog
	p2, _ := p.Index("p2")
	s := a.Summary(p2)

	// §2: live-at-entry[P2] = {R0, R1}; R0 because a return path from
	// P2 leads to a use of R0 in P1.
	if got := s.LiveAtEntry[0].Intersect(paperRegs); got != regset.Of(regset.R0, regset.R1) {
		t.Errorf("p2 live-at-entry = %v, want {r0, r1}", got)
	}
	// §2: live-at-exit[P2] = {R0}.
	if got := s.LiveAtExit[0].Intersect(paperRegs); got != regset.Of(regset.R0) {
		t.Errorf("p2 live-at-exit = %v, want {r0}", got)
	}
}

func TestFigure2ValidPathsPrecision(t *testing.T) {
	// The meet-over-all-valid-paths property (§5): R0 is live at P2's
	// exit only because of P1's return path; liveness at P3's call must
	// not leak P1's use of R0 into P3.
	a := analyze(t, figure2Src)
	p := a.Prog
	p3, _ := p.Index("p3")
	// Find P3's return node and check R0 is not live there.
	for _, n := range a.PSG.Nodes {
		if n.Kind == NodeReturn && n.Routine == p3 {
			if n.MayUse.Contains(regset.R0) {
				t.Errorf("R0 live at P3's return site: invalid-path leakage: %v", n.MayUse)
			}
		}
	}
}

// figure4Src encodes the paper's Figure 4(a): four basic blocks, one
// call.
const figure4Src = `
.start main
.routine main
  jsr f
  halt

.routine f
  mov  r2, r1        ; block 1: uses R1, defines R2
  beq  r2, b3
  lda  r3, 1(zero)   ; block 2: defines R3
  br   b4
b3:
  lda  r3, 2(zero)   ; block 3: defines R3, ends at the call
  jsr  g
b4:
  print r2           ; block 4: uses R2
  ret

.routine g
  ret
`

func TestFigure4PSGShape(t *testing.T) {
	a := analyze(t, figure4Src)
	fi, _ := a.Prog.Index("f")

	var entry, exit, call, ret, branch int
	for _, n := range a.PSG.Nodes {
		if n.Routine != fi {
			continue
		}
		switch n.Kind {
		case NodeEntry:
			entry++
		case NodeExit:
			exit++
		case NodeCall:
			call++
		case NodeReturn:
			ret++
		case NodeBranch:
			branch++
		}
	}
	if entry != 1 || exit != 1 || call != 1 || ret != 1 || branch != 0 {
		t.Errorf("nodes = entry:%d exit:%d call:%d return:%d branch:%d, want 1/1/1/1/0",
			entry, exit, call, ret, branch)
	}

	// Edges within f: E_A (entry→exit), E_B (entry→call),
	// E_C (return→exit), E_CR (call→return).
	var flow, cr int
	for _, e := range a.PSG.Edges {
		if a.PSG.Nodes[e.Src].Routine != fi {
			continue
		}
		if e.Kind == EdgeFlow {
			flow++
		} else {
			cr++
		}
	}
	if flow != 3 || cr != 1 {
		t.Errorf("edges = flow:%d call-return:%d, want 3/1", flow, cr)
	}
}

func TestFigure4EdgeLabels(t *testing.T) {
	a := analyze(t, figure4Src)
	fi, _ := a.Prog.Index("f")
	psg := a.PSG

	var entryID, exitID, callID, retID int
	for _, n := range psg.Nodes {
		if n.Routine != fi {
			continue
		}
		switch n.Kind {
		case NodeEntry:
			entryID = n.ID
		case NodeExit:
			exitID = n.ID
		case NodeCall:
			callID = n.ID
		case NodeReturn:
			retID = n.ID
		}
	}
	find := func(src, dst int) *Edge {
		t.Helper()
		for i := range psg.Edges {
			if e := &psg.Edges[i]; e.Kind == EdgeFlow && e.Src == src && e.Dst == dst {
				return e
			}
		}
		t.Fatalf("edge %d→%d not found", src, dst)
		return nil
	}

	// E_A = (entry, exit): paths through blocks 1, 2, 4.
	ea := find(entryID, exitID)
	if got := ea.MustDef.Intersect(paperRegs); got != regset.Of(regset.R2, regset.R3) {
		t.Errorf("E_A MUST-DEF = %v, want {r1(paper R2), r2(paper R3)}", got)
	}
	if got := ea.MayUse.Intersect(paperRegs); got != regset.Of(regset.R1) {
		t.Errorf("E_A MAY-USE = %v, want {paper R1}", got)
	}

	// E_B = (entry, call): paths through blocks 1, 3.
	eb := find(entryID, callID)
	if got := eb.MustDef.Intersect(paperRegs); got != regset.Of(regset.R2, regset.R3) {
		t.Errorf("E_B MUST-DEF = %v", got)
	}
	if got := eb.MayUse.Intersect(paperRegs); got != regset.Of(regset.R1) {
		t.Errorf("E_B MAY-USE = %v", got)
	}

	// E_C = (return, exit): paths through block 4 only.
	ec := find(retID, exitID)
	if got := ec.MustDef.Intersect(paperRegs); got != regset.Empty {
		t.Errorf("E_C MUST-DEF = %v, want empty", got)
	}
	if got := ec.MayUse.Intersect(paperRegs); got != regset.Of(regset.R2) {
		t.Errorf("E_C MAY-USE = %v, want {paper R2}", got)
	}
}

func TestTransitiveCallSummaries(t *testing.T) {
	// a calls b calls c; c's register effects must surface in a's
	// summary.
	src := `
.start main
.routine main
  jsr a
  halt
.routine a
  jsr b
  ret
.routine b
  jsr c
  ret
.routine c
  mov r2, r1
  ret
`
	a := analyze(t, src)
	ai, _ := a.Prog.Index("a")
	cs := a.CallSummaryFor(ai, 0)
	used := cs.Used
	defined := cs.Defined
	killed := cs.Killed
	if !used.Contains(regset.R1) {
		t.Errorf("transitive call-used missing r1: %v", used)
	}
	if !defined.Contains(regset.R2) {
		t.Errorf("transitive call-defined missing r2: %v", defined)
	}
	if !killed.Contains(regset.R2) {
		t.Errorf("transitive call-killed missing r2: %v", killed)
	}
}

func TestRecursionConverges(t *testing.T) {
	src := `
.start main
.routine main
  jsr fact
  halt
.routine fact
  beq a0, base
  sub a0, a0, t0
  jsr fact
  mul v0, v0, a0
  ret
base:
  lda v0, 1(zero)
  ret
`
	a := analyze(t, src)
	fi, _ := a.Prog.Index("fact")
	cs := a.CallSummaryFor(fi, 0)
	used := cs.Used
	defined := cs.Defined
	if !used.Contains(regset.A0) {
		t.Errorf("recursive call-used missing a0: %v", used)
	}
	if !used.Contains(regset.T0) {
		t.Errorf("recursive call-used missing t0: %v", used)
	}
	// v0 defined on both the base and recursive paths.
	if !defined.Contains(regset.V0) {
		t.Errorf("recursive call-defined missing v0: %v", defined)
	}
	// a0 is not defined by fact.
	if defined.Contains(regset.A0) {
		t.Errorf("a0 must not be call-defined: %v", defined)
	}
}

func TestMutualRecursionConverges(t *testing.T) {
	src := `
.start main
.routine main
  jsr even
  halt
.routine even
  beq a0, yes
  sub a0, a0, t0
  jsr odd
  ret
yes:
  lda v0, 1(zero)
  ret
.routine odd
  beq a0, no
  sub a0, a0, t0
  jsr even
  ret
no:
  lda v0, 0(zero)
  ret
`
	a := analyze(t, src)
	for _, name := range []string{"even", "odd"} {
		ri, _ := a.Prog.Index(name)
		cs := a.CallSummaryFor(ri, 0)
		used := cs.Used
		defined := cs.Defined
		if !used.Contains(regset.A0) || !used.Contains(regset.T0) {
			t.Errorf("%s call-used = %v, want a0 and t0", name, used)
		}
		// v0 is defined on the terminating path but not on the path
		// that tails into the mutual call... it is defined by the
		// mutual call on every path, so MUST-DEF contains v0.
		if !defined.Contains(regset.V0) {
			t.Errorf("%s call-defined = %v, want v0", name, defined)
		}
	}
}

func TestMustDefIntersectsAcrossPaths(t *testing.T) {
	// r2 defined on only one branch: call-killed but not call-defined.
	src := `
.start main
.routine main
  jsr f
  halt
.routine f
  beq r1, other
  lda r2, 1(zero)
  ret
other:
  lda r3, 1(zero)
  ret
`
	a := analyze(t, src)
	fi, _ := a.Prog.Index("f")
	cs := a.CallSummaryFor(fi, 0)
	defined := cs.Defined
	killed := cs.Killed
	if defined.Contains(regset.R2) || defined.Contains(regset.R3) {
		t.Errorf("one-sided defs must not be call-defined: %v", defined)
	}
	if !killed.Contains(regset.R2) || !killed.Contains(regset.R3) {
		t.Errorf("one-sided defs must be call-killed: %v", killed)
	}
}

func TestCalleeSavedFiltering(t *testing.T) {
	// f saves and restores s0 around its use; callers must not see s0
	// in any summary set (§3.4).
	src := `
.start main
.routine main
  jsr f
  halt
.routine f
  lda sp, -8(sp)
  st  s0, 0(sp)
  mov s0, a0
  print s0
  ld  s0, 0(sp)
  lda sp, 8(sp)
  ret
`
	a := analyze(t, src)
	fi, _ := a.Prog.Index("f")
	cs := a.CallSummaryFor(fi, 0)
	used := cs.Used
	defined := cs.Defined
	killed := cs.Killed
	if used.Contains(regset.S0) {
		t.Errorf("saved/restored s0 must not be call-used: %v", used)
	}
	if defined.Contains(regset.S0) {
		t.Errorf("saved/restored s0 must not be call-defined: %v", defined)
	}
	if killed.Contains(regset.S0) {
		t.Errorf("saved/restored s0 must not be call-killed: %v", killed)
	}
	if got := a.Summary(fi).SavedRestored; !got.Contains(regset.S0) {
		t.Errorf("SavedRestored = %v, want s0", got)
	}
}

func TestUnsavedCalleeSavedPropagates(t *testing.T) {
	// f clobbers s0 without saving it: callers must see the kill.
	src := `
.start main
.routine main
  jsr f
  halt
.routine f
  mov s0, a0
  ret
`
	a := analyze(t, src)
	fi, _ := a.Prog.Index("f")
	killed := a.CallSummaryFor(fi, 0).Killed
	if !killed.Contains(regset.S0) {
		t.Errorf("unsaved s0 clobber must be call-killed: %v", killed)
	}
}

func TestUnknownIndirectJumpConservative(t *testing.T) {
	src := `
.start main
.routine main
  jsr f
  halt
.routine f
  jmp t0, ?
`
	a := analyze(t, src)
	fi, _ := a.Prog.Index("f")
	cs := a.CallSummaryFor(fi, 0)
	used := cs.Used
	defined := cs.Defined
	killed := cs.Killed
	if !used.Contains(regset.S3) || !used.Contains(regset.F7) {
		t.Errorf("unknown jump must make all registers call-used: %v", used)
	}
	if !defined.IsEmpty() {
		t.Errorf("unknown jump: nothing is must-defined: %v", defined)
	}
	if !killed.Contains(regset.T5) {
		t.Errorf("unknown jump must kill everything: %v", killed)
	}
}

func TestIndirectCallUsesCallingStandard(t *testing.T) {
	src := `
.start main
.routine main
  jsri pv
  print v0
  halt
`
	a := analyze(t, src)
	mi := a.Prog.Entry
	s := a.Summary(mi)
	// The indirect call is assumed to use the argument registers, so
	// they are live at main's entry.
	if !s.LiveAtEntry[0].Contains(regset.A0) {
		t.Errorf("a0 must be live at entry (arg to unknown callee): %v", s.LiveAtEntry[0])
	}
	// v0 is assumed call-defined, so not live at entry.
	if s.LiveAtEntry[0].Contains(regset.V0) {
		t.Errorf("v0 assumed defined by standard callee: %v", s.LiveAtEntry[0])
	}
}

func TestAddressTakenRoutineExitSeed(t *testing.T) {
	src := `
.start main
.routine main
  jsri pv
  halt
.routine cb
.addrtaken
  lda v0, 7(zero)
  ret
`
	a := analyze(t, src)
	ci, _ := a.Prog.Index("cb")
	s := a.Summary(ci)
	// Unknown callers may use the return value: v0 live at exit.
	if !s.LiveAtExit[0].Contains(regset.V0) {
		t.Errorf("v0 must be live at an address-taken routine's exit: %v", s.LiveAtExit[0])
	}
	// Unknown callers rely on callee-saved registers.
	if !s.LiveAtExit[0].Contains(regset.S0) {
		t.Errorf("s0 must be live at an address-taken routine's exit: %v", s.LiveAtExit[0])
	}
	// But temporaries are dead.
	if s.LiveAtExit[0].Contains(regset.T4) {
		t.Errorf("t4 must not be live at exit: %v", s.LiveAtExit[0])
	}
}

func TestDeadRoutineLiveAtExitEmpty(t *testing.T) {
	src := `
.start main
.routine main
  halt
.routine unused
  lda t0, 1(zero)
  ret
`
	a := analyze(t, src)
	ui, _ := a.Prog.Index("unused")
	s := a.Summary(ui)
	if !s.LiveAtExit[0].IsEmpty() {
		t.Errorf("uncalled routine live-at-exit = %v, want empty", s.LiveAtExit[0])
	}
}

func TestMultipleEntrySummaries(t *testing.T) {
	// Entry 0 falls into shared code; entry alt defines r1 first, so a
	// call through alt does not use r1.
	src := `
.start main
.routine main
  jsr f
  halt
.routine f
.entry alt
  br join
alt:
  lda r1, 5(zero)
join:
  print r1
  ret
`
	p, err := prog.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	a, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	fi, _ := p.Index("f")
	used0 := a.CallSummaryFor(fi, 0).Used
	used1 := a.CallSummaryFor(fi, 1).Used
	if !used0.Contains(regset.R1) {
		t.Errorf("entry 0 must use r1: %v", used0)
	}
	if used1.Contains(regset.R1) {
		t.Errorf("entry alt defines r1 first; must not use it: %v", used1)
	}
}

func TestLiveAtEntryIncludesCalleeUses(t *testing.T) {
	a := analyze(t, figure2Src)
	p1, _ := a.Prog.Index("p1")
	s := a.Summary(p1)
	// P1 uses nothing of the paper registers before defining them.
	if got := s.LiveAtEntry[0].Intersect(paperRegs); !got.IsEmpty() {
		t.Errorf("p1 live-at-entry = %v, want none of r0-r3", got)
	}
}

func TestAnalyzeRejectsInvalidProgram(t *testing.T) {
	p := prog.New()
	p.Add(prog.NewRoutine("f", prog.NewRoutine("x").Code...))
	if _, err := Analyze(p); err == nil {
		t.Error("Analyze must reject invalid programs")
	}
}

func TestStatsPopulated(t *testing.T) {
	a := analyze(t, figure2Src)
	st := a.Stats
	if st.Routines != 4 {
		t.Errorf("Routines = %d", st.Routines)
	}
	if st.Instructions != a.Prog.NumInstructions() {
		t.Errorf("Instructions = %d", st.Instructions)
	}
	if st.BasicBlocks == 0 || st.CFGArcs == 0 {
		t.Error("block/arc counts missing")
	}
	if st.PSGNodes == 0 || st.PSGEdges == 0 {
		t.Error("PSG counts missing")
	}
	if st.GraphBytes == 0 {
		t.Error("GraphBytes missing")
	}
	if st.Total() <= 0 {
		t.Error("stage durations missing")
	}
	fr := st.StageFractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("stage fractions sum to %f", sum)
	}
}

// TestEmptyChainRoutine pins a routine with no def-use chain node: its
// only block is an empty self-loop (no DEF or UBD, one successor, no
// sink). A fresh chain slab must still build and label it.
func TestEmptyChainRoutine(t *testing.T) {
	a := analyze(t, ".routine main\nL:\n  br L\n")
	if got := a.Stats.PSGEdges; got != 0 {
		t.Errorf("PSG edges = %d, want 0", got)
	}
	d := new(defUse)
	graph := a.Graphs[0]
	d.build(graph, d.routineNodes(len(graph.Blocks)))
	if d.nChain != 0 {
		t.Errorf("chain nodes = %d, want 0", d.nChain)
	}
}

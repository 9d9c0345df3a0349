package check

import (
	"os"
	"testing"

	"repro/internal/prog"
	"repro/internal/progen"
)

// labelingSeeds are assembler shapes that stress the sparse labeler's
// chain machinery: forwarding contraction over straight-line runs,
// loops (a source reaching its own sink through a back edge), multiway
// branches that become branch nodes, calls interposing mid-chain, and
// indirect jumps producing unknown exits — plus the paper's Figure 4
// and Figure 12 programs.
var labelingSeeds = []string{
	".start main\n.routine main\n  halt\n",
	// Call mid-loop: returns and calls chained through a back edge.
	".start main\n.routine main\nL:\n  jsr f\n  bne a0, L\n  halt\n.routine f\n  ret\n",
	// Forwarding run: blocks with one successor and no defs contract.
	".start main\n.routine main\n  br A\nA:\n  br B\nB:\n  lda a0, 1(zero)\n  halt\n",
	// Multiway branch inside a loop becomes a branch node.
	".start main\n.routine main\n.table T0 = A, B\nL:\n  jmp t0, T0\nA:\n  beq a0, L\n  halt\nB:\n  halt\n",
	// Indirect jump with unknown targets: pseudo-exit sink.
	".start main\n.routine main\n  beq a0, X\n  halt\nX:\n  jmp t0, ?\n",
	// Self-loop block: an empty cycle whose forwarding walk closes on itself.
	".start main\n.routine main\n  beq a0, L\n  halt\nL:\n  br L\n",
	// No chain node at all: the routine's only block is an empty self-loop.
	".start main\n.routine main\nL:\n  br L\n",
	// Figure 4: a diamond whose one arm ends at a call, so f's entry
	// has flow edges to the call and to the exit.
	`.start main
.routine main
  jsr f
  halt
.routine f
  mov  r2, r1
  beq  r2, b3
  lda  r3, 1(zero)
  br   b4
b3:
  lda  r3, 2(zero)
  jsr  g
b4:
  print r2
  ret
.routine g
  ret
`,
	// Figure 12: a 3-way branch inside a loop with a call at each
	// target; branch nodes split the return-to-call edges.
	`.start main
.routine main
  jsr f
  halt
.routine g
  ret
.routine f
.table T0 = c1, c2, c3
top:
  beq t9, out
  jmp t0, T0
c1:
  jsr g
  br top
c2:
  jsr g
  br top
c3:
  jsr g
  br top
out:
  ret
`,
}

// FuzzLabeling aims the fuzzer at the labeling oracle alone: for any
// program the assembler accepts, the sparse labeler's flow edges and
// labels must match the literal Figure 6 procedure with branch nodes on
// and off. Cheaper per execution than FuzzAnalyze (two analyses, no
// emulation), so it digs deeper into chain-shape space; the corpus
// under testdata/fuzz/FuzzLabeling seeds the shapes above.
func FuzzLabeling(f *testing.F) {
	for _, src := range labelingSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8<<10 {
			t.Skip("oversized input")
		}
		p, err := prog.Assemble(src)
		if err != nil {
			t.Skip()
		}
		for _, v := range Labeling(p) {
			t.Fatalf("oracle violation: %s", v)
		}
	})
}

// TestLabelingSeedsClean pins the seed corpus outside fuzzing runs so
// the ordinary test suite (and CI) exercises the same shapes.
func TestLabelingSeedsClean(t *testing.T) {
	for i, src := range labelingSeeds {
		p, err := prog.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d does not assemble: %v", i, err)
		}
		for _, v := range Labeling(p) {
			t.Errorf("seed %d: %s", i, v)
		}
	}
}

// TestLabelingExamples is the CI guard on the repository's fixtures:
// the labeling oracle must hold on examples/fig2.s (the paper's running
// example) and on one generated program per progen paper profile — the
// program shapes the examples and benchmarks run.
func TestLabelingExamples(t *testing.T) {
	src, err := os.ReadFile("../../examples/fig2.s")
	if err != nil {
		t.Fatal(err)
	}
	p, err := prog.Assemble(string(src))
	if err != nil {
		t.Fatalf("examples/fig2.s does not assemble: %v", err)
	}
	for _, v := range Labeling(p) {
		t.Errorf("fig2.s: %s", v)
	}

	for _, prof := range progen.Profiles {
		p := progen.Generate(prof, progen.DefaultOptions(8))
		for _, v := range Labeling(p) {
			t.Errorf("profile %s: %s", prof.Name, v)
		}
	}
}

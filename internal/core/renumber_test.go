package core

import (
	"strings"
	"testing"

	"repro/internal/prog"
)

// renumberBefore holds a fall-through block (the lda/add pair after the
// first branch in f) that renumberAfter deletes outright, as a dead-code
// round followed by compaction does: every block after it in f moves
// down by one, the call and return nodes' and the exit's included,
// while f keeps every PSG node and edge.
const renumberBefore = `
.start main
.routine main
  lda a0, 1(zero)
  lda a1, 2(zero)
  lda s0, 3(zero)
  jsr f
  print v0
  print s0
  halt

.routine f
  beq a0, skip
  lda t0, 7(zero)
  add t1, t0, a1
skip:
  mov v0, a1
  jsr g
  beq v0, out
  add v0, v0, a0
out:
  ret

.routine g
  add v0, a0, a1
  ret
`

var renumberAfter = strings.Replace(renumberBefore, `
  lda t0, 7(zero)
  add t1, t0, a1
`, "\n", 1)

// renumberAfterHalt is renumberAfter with f's exit switched from ret to
// halt: the shape holds, but main's return site no longer links to f's
// exit. Read at the exit's new block, the old CFG holds the add before
// it (neither side a ret, so the links would wrongly be kept); read at
// its old block, the new CFG has no such block. Only the old block in
// the old CFG gives the right answer.
var renumberAfterHalt = strings.Replace(renumberAfter, "out:\n  ret", "out:\n  halt", 1)

// TestReanalyzeBlockRenumberStaysShapePreserving pins that an edit which
// renumbers a routine's blocks without moving a PSG node or edge takes
// the shape-preserving path, in both edit directions, copying and in
// place, across the option matrix; that the result equals a
// from-scratch analysis; and that the return-site links are kept unless
// an exit switched between ret and halt.
func TestReanalyzeBlockRenumberStaysShapePreserving(t *testing.T) {
	pairs := []struct {
		name          string
		before, after string
		relink        bool
	}{
		{"renumber", renumberBefore, renumberAfter, false},
		{"renumber+halt", renumberBefore, renumberAfterHalt, true},
	}
	for _, pair := range pairs {
		for _, dir := range []string{"forward", "reverse"} {
			from, to := pair.before, pair.after
			if dir == "reverse" {
				from, to = to, from
			}
			for name, opts := range reanalyzeOptionSets() {
				for _, inPlace := range []bool{false, true} {
					mode := "copy"
					if inPlace {
						mode = "in-place"
					}
					t.Run(pair.name+"/"+dir+"/"+name+"/"+mode, func(t *testing.T) {
						checkRenumberEdit(t, from, to, pair.relink, inPlace, opts)
					})
				}
			}
		}
	}
}

func checkRenumberEdit(t *testing.T, from, to string, relink, inPlace bool, opts []Option) {
	t.Helper()
	src, dst := prog.MustAssemble(from), prog.MustAssemble(to)
	prev, scratch := mustAnalyze(t, src, opts), mustAnalyze(t, dst, opts)
	fi, _ := src.Index("f")
	if n := len(prev.Graphs[fi].Blocks); n == len(scratch.Graphs[fi].Blocks) {
		t.Fatalf("f has %d blocks on both sides; the edit renumbers nothing", n)
	}
	prevLinks := prev.PSG.retStart
	var inc *Analysis
	var err error
	if inPlace {
		inc, err = ReanalyzeInPlace(prev, dst, opts...)
	} else {
		inc, err = Reanalyze(prev, dst, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Incremental.ShapePreserving {
		t.Error("block renumbering left the shape-preserving path")
	}
	if kept := &inc.PSG.retStart[0] == &prevLinks[0]; kept == relink {
		t.Errorf("return-site links kept = %v, want %v", kept, !relink)
	}
	checkSameAnalysis(t, inc, scratch)
	if !inPlace {
		checkSameAnalysis(t, prev, mustAnalyze(t, src, opts))
	}
}

func mustAnalyze(t *testing.T, p *prog.Program, opts []Option) *Analysis {
	t.Helper()
	a, err := Analyze(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

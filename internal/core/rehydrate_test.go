package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/prog"
	"repro/internal/progen"
)

// rotate returns s with its first k elements moved to the end.
func rotate[T any](s []T, k int) []T {
	return append(slices.Clone(s[k:]), s[:k]...)
}

// TestRehydrateRejectsNonContiguousEdges feeds Rehydrate renumberBefore's
// saved state with the six edge columns rotated so main's three edges
// come last. Every index stays in range and every edge inside its
// routine; only the slab order is wrong, and the per-routine edge
// ranges derived from it would name another routine's edges: a
// re-analysis after a main body edit would answer f's live-at-entry as
// {} (Analyze gives {s0, a0, a1}), and one after a g body edit would
// index past a slab. Rehydrate must refuse the state with a
// *StateError; were it accepted, each subtest runs its edit against a
// from-scratch analysis to show the damage.
func TestRehydrateRejectsNonContiguousEdges(t *testing.T) {
	p := prog.MustAssemble(renumberBefore)
	a := mustAnalyze(t, p, nil)
	st := a.Export()
	k := int(a.PSG.edgeStart[1]) // main's edges lead the slab
	st.EdgeKind, st.EdgeSrc, st.EdgeDst = rotate(st.EdgeKind, k), rotate(st.EdgeSrc, k), rotate(st.EdgeDst, k)
	st.EdgeMayUse, st.EdgeMayDef, st.EdgeMustDef = rotate(st.EdgeMayUse, k), rotate(st.EdgeMayDef, k), rotate(st.EdgeMustDef, k)

	for _, edit := range []struct{ routine, old, new string }{
		{"main", "lda a1, 2(zero)", "lda a1, 5(zero)"},
		{"g", "add v0, a0, a1", "sub v0, a0, a1"},
	} {
		t.Run(edit.routine, func(t *testing.T) {
			restored, err := Rehydrate(p, st)
			var se *StateError
			if errors.As(err, &se) {
				return
			}
			if err != nil {
				t.Fatalf("Rehydrate: %v, want a *StateError", err)
			}
			t.Error("Rehydrate accepted an edge slab that is not routine-contiguous")
			patched := prog.MustAssemble(strings.Replace(renumberBefore, edit.old, edit.new, 1))
			inc, err := Reanalyze(restored, patched)
			if err != nil {
				t.Fatal(err)
			}
			checkSameAnalysis(t, inc, mustAnalyze(t, patched, nil))
		})
	}
}

// TestConcurrentReanalyzeFromRestoredBase re-analyzes one edit of each
// mutation kind from a single restored analysis at once, as the daemon
// does when patches of one cached version arrive together; the kinds
// take both the shape-preserving and the general path. The base's slab
// bounds and lists are set when it is built and only read afterwards,
// so under -race every result must equal a from-scratch analysis and
// the base must stay equal to the analysis it was saved from.
func TestConcurrentReanalyzeFromRestoredBase(t *testing.T) {
	p := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(3))
	a := mustAnalyze(t, p, nil)
	base, err := Rehydrate(p, a.Export())
	if err != nil {
		t.Fatal(err)
	}
	mutants := make([]*prog.Program, progen.NumMutations)
	for kind := range mutants {
		mutants[kind], _ = progen.MutateKind(p, uint64(kind)+1, progen.Mutation(kind))
	}
	results := make([]*Analysis, len(mutants))
	errs := make([]error, len(mutants))
	var wg sync.WaitGroup
	for i, m := range mutants {
		wg.Add(1)
		go func(i int, m *prog.Program) {
			defer wg.Done()
			results[i], errs[i] = Reanalyze(base, m)
		}(i, m)
	}
	wg.Wait()
	paths := map[bool]bool{}
	for i, m := range mutants {
		if errs[i] != nil {
			t.Fatalf("%v: %v", progen.Mutation(i), errs[i])
		}
		paths[results[i].Incremental.ShapePreserving] = true
		checkSameAnalysis(t, results[i], mustAnalyze(t, m, nil))
	}
	if len(paths) != 2 {
		t.Errorf("the edits took only one path (shape-preserving = %v)", paths)
	}
	checkSameAnalysis(t, base, a)
}

package core

import (
	"errors"
	"testing"

	"repro/internal/progen"
)

// TestReanalyzeInPlaceMatchesScratch mirrors the copying matrix: every
// mutation kind under every option set must land byte-identical to a
// from-scratch analysis. The base analysis is rebuilt per mutation,
// since ReanalyzeInPlace consumes it.
func TestReanalyzeInPlaceMatchesScratch(t *testing.T) {
	for name, opts := range reanalyzeOptionSets() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 6; seed++ {
				base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(seed))
				for kind := progen.Mutation(0); kind < progen.NumMutations; kind++ {
					prev, err := Analyze(base, opts...)
					if err != nil {
						t.Fatalf("seed %d: base analysis: %v", seed, err)
					}
					mutant, desc := progen.MutateKind(base, seed*977+uint64(kind), kind)
					inc, err := ReanalyzeInPlace(prev, mutant, opts...)
					if err != nil {
						t.Fatalf("seed %d %s: ReanalyzeInPlace: %v", seed, desc, err)
					}
					scratch, err := Analyze(mutant, opts...)
					if err != nil {
						t.Fatalf("seed %d %s: scratch analysis: %v", seed, desc, err)
					}
					checkSameAnalysis(t, inc, scratch)
					if inc.Incremental == nil {
						t.Fatalf("seed %d %s: Incremental stats missing", seed, desc)
					}
				}
			}
		})
	}
}

// TestReanalyzeInPlacePingPong drives the editor-loop steady state the
// in-place mode exists for: the same two programs alternate as the
// target, so after the first step every edit updates an analysis that
// was itself updated in place. Each step must match scratch exactly.
func TestReanalyzeInPlacePingPong(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(13))
	mutant, _ := progen.MutateKind(base, 29, progen.MutBodyEdit)
	scratchBase, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	scratchMut, err := Analyze(mutant)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		target, want := mutant, scratchMut
		if step%2 == 1 {
			target, want = base, scratchBase
		}
		cur, err = ReanalyzeInPlace(cur, target)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkSameAnalysis(t, cur, want)
	}
}

// TestReanalyzeInPlaceChain applies a fresh mutation at every step, so
// the in-place entry point also sees routine-count and shape changes
// that take the general re-layout path mid-chain.
func TestReanalyzeInPlaceChain(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(17))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for step := 0; step < 8; step++ {
		mutant, desc := progen.Mutate(cur, uint64(4000+step))
		inc, err := ReanalyzeInPlace(prev, mutant)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, desc, err)
		}
		scratch, err := Analyze(mutant)
		if err != nil {
			t.Fatalf("step %d (%s): scratch: %v", step, desc, err)
		}
		checkSameAnalysis(t, inc, scratch)
		cur, prev = mutant, inc
	}
}

// TestReanalyzeInPlaceIdentityEdit: an unchanged program must re-solve
// nothing and still compare equal to a scratch analysis.
func TestReanalyzeInPlaceIdentityEdit(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(7))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := ReanalyzeInPlace(prev, base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if inc.Incremental.DirtyRoutines != 0 {
		t.Fatalf("identity edit marked %d routines dirty", inc.Incremental.DirtyRoutines)
	}
	if inc.Incremental.ResolvedComponents != 0 {
		t.Fatalf("identity edit re-solved %d components", inc.Incremental.ResolvedComponents)
	}
	checkSameAnalysis(t, inc, scratch)
}

// TestReanalyzeInPlaceTakesInPlacePath guards against the
// shape-preserving path silently rotting into a permanent re-layout:
// across the mutation matrix, at least one edit must keep the PSG
// shape, and structural mutations must take the general path rather
// than error.
func TestReanalyzeInPlaceTakesInPlacePath(t *testing.T) {
	hits := 0
	for seed := uint64(1); seed <= 6; seed++ {
		base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(seed))
		for kind := progen.Mutation(0); kind < progen.NumMutations; kind++ {
			prev, err := Analyze(base)
			if err != nil {
				t.Fatal(err)
			}
			mutant, desc := progen.MutateKind(base, seed*977+uint64(kind), kind)
			inc, err := ReanalyzeInPlace(prev, mutant)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, desc, err)
			}
			if inc.Incremental.ShapePreserving {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no mutation in the matrix kept the PSG shape; the shape-preserving path is dead")
	}
	t.Logf("shape-preserving applications: %d", hits)
}

// TestBodyEditChainPreservesShape drives 200 chained body edits through
// both entry points. A body edit replaces one straight-line instruction,
// so it never changes control flow or call sites and the PSG keeps its
// shape even when the edit moves §3.4 frame facts: every step must take
// the shape-preserving path, and the chain's end must still match a
// from-scratch analysis.
func TestBodyEditChainPreservesShape(t *testing.T) {
	prof, _ := progen.ProfileByName("vc")
	cur := progen.Generate(prof.Scale(0.02), progen.DefaultOptions(5))
	copied, err := Analyze(cur)
	if err != nil {
		t.Fatal(err)
	}
	consumed, err := Analyze(cur)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		mutant, desc := progen.MutateKind(cur, uint64(7000+step), progen.MutBodyEdit)
		if copied, err = Reanalyze(copied, mutant); err != nil {
			t.Fatalf("step %d (%s): Reanalyze: %v", step, desc, err)
		}
		if consumed, err = ReanalyzeInPlace(consumed, mutant); err != nil {
			t.Fatalf("step %d (%s): ReanalyzeInPlace: %v", step, desc, err)
		}
		if !copied.Incremental.ShapePreserving || !consumed.Incremental.ShapePreserving {
			t.Fatalf("step %d (%s): shape-preserving path not taken (Reanalyze %v, ReanalyzeInPlace %v)",
				step, desc, copied.Incremental.ShapePreserving, consumed.Incremental.ShapePreserving)
		}
		cur = mutant
	}
	scratch, err := Analyze(cur)
	if err != nil {
		t.Fatal(err)
	}
	checkSameAnalysis(t, copied, scratch)
	checkSameAnalysis(t, consumed, scratch)
}

func TestReanalyzeInPlaceConfigMismatch(t *testing.T) {
	base := progen.Generate(progen.TestProfile(10), progen.DefaultOptions(3))
	prev, err := Analyze(base, WithClosedWorld())
	if err != nil {
		t.Fatal(err)
	}
	mutant, _ := progen.Mutate(base, 5)
	_, err = ReanalyzeInPlace(prev, mutant, WithOpenWorld())
	var mismatch *ConfigMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("want ConfigMismatchError, got %v", err)
	}
	// prev is documented to stay valid on a config mismatch; the retry
	// with matching options must succeed.
	if _, err := ReanalyzeInPlace(prev, mutant, WithClosedWorld()); err != nil {
		t.Fatalf("matching options after mismatch: %v", err)
	}
}

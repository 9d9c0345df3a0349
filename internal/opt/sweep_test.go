package opt

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/progen"
	"repro/internal/regset"
)

// TestEachLiveAfterMatchesLiveAfter pins the dead-code pass's liveness
// sweep: dataflow.Liveness.EachLiveAfter yields every instruction
// exactly once, with the set LiveAfter returns for it, over the
// interprocedural solve and the conservative one alike, in both worlds,
// on generated programs holding call blocks, multiway branches and
// unknown jumps.
func TestEachLiveAfterMatchesLiveAfter(t *testing.T) {
	prof := progen.TestProfile(60)
	prof.UnknownJumpFrac = 0.1
	terms := map[cfg.TermKind]int{}
	for _, seed := range []uint64{1, 2, 3} {
		p := progen.Generate(prof, progen.DefaultOptions(seed))
		for _, world := range []core.Option{core.WithClosedWorld(), core.WithOpenWorld()} {
			a, err := core.Analyze(p, world)
			if err != nil {
				t.Fatal(err)
			}
			for ri, r := range p.Routines {
				for _, b := range a.Graphs[ri].Blocks {
					terms[b.Term]++
				}
				for name, lv := range map[string]*dataflow.Liveness{
					"interprocedural": Liveness(a, ri),
					"conservative":    ConservativeLiveness(a, ri),
				} {
					seen := make([]bool, len(r.Code))
					lv.EachLiveAfter(func(i int, after regset.Set) {
						if seen[i] {
							t.Fatalf("seed %d %s %s: instruction %d yielded twice", seed, r.Name, name, i)
						}
						seen[i] = true
						if want := lv.LiveAfter(i); after != want {
							t.Fatalf("seed %d %s %s: instruction %d: swept %v, LiveAfter %v",
								seed, r.Name, name, i, after, want)
						}
					})
					for i, ok := range seen {
						if !ok {
							t.Fatalf("seed %d %s %s: instruction %d never yielded", seed, r.Name, name, i)
						}
					}
				}
			}
		}
	}
	for _, k := range []cfg.TermKind{cfg.TermCall, cfg.TermMultiway, cfg.TermUnknownJump} {
		if terms[k] == 0 {
			t.Errorf("the generated programs hold no %v block", k)
		}
	}
}

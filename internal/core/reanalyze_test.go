package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/progen"
)

// checkSameAnalysis verifies that an incremental re-analysis landed on
// exactly the state a from-scratch analysis computes: identical
// summaries, identical structural counts, and identical converged
// per-node and per-edge dataflow sets.
func checkSameAnalysis(t *testing.T, inc, scratch *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(inc.Summaries, scratch.Summaries) {
		for ri := range scratch.Summaries {
			if ri >= len(inc.Summaries) || !reflect.DeepEqual(inc.Summaries[ri], scratch.Summaries[ri]) {
				t.Fatalf("summaries diverge at routine %d (%s):\nincremental: %+v\nscratch:     %+v",
					ri, scratch.Prog.Routines[ri].Name, inc.Summaries[ri], scratch.Summaries[ri])
			}
		}
		t.Fatalf("summaries diverge (length %d vs %d)", len(inc.Summaries), len(scratch.Summaries))
	}
	type counts struct{ routines, instrs, blocks, arcs, nodes, edges, comps int }
	ci := counts{inc.Stats.Routines, inc.Stats.Instructions, inc.Stats.BasicBlocks,
		inc.Stats.CFGArcs, inc.Stats.PSGNodes, inc.Stats.PSGEdges, inc.Stats.SCCComponents}
	cs := counts{scratch.Stats.Routines, scratch.Stats.Instructions, scratch.Stats.BasicBlocks,
		scratch.Stats.CFGArcs, scratch.Stats.PSGNodes, scratch.Stats.PSGEdges, scratch.Stats.SCCComponents}
	if ci != cs {
		t.Fatalf("structural counts diverge:\nincremental: %+v\nscratch:     %+v", ci, cs)
	}
	gi, gs := inc.PSG, scratch.PSG
	if len(gi.Nodes) != len(gs.Nodes) || len(gi.Edges) != len(gs.Edges) {
		t.Fatalf("PSG shape diverges: %d/%d nodes, %d/%d edges",
			len(gi.Nodes), len(gs.Nodes), len(gi.Edges), len(gs.Edges))
	}
	for i := range gs.Nodes {
		ni, ns := &gi.Nodes[i], &gs.Nodes[i]
		if ni.Kind != ns.Kind || ni.Routine != ns.Routine || ni.Block != ns.Block ||
			ni.CallTarget != ns.CallTarget || ni.CallEntry != ns.CallEntry {
			t.Fatalf("node %d structure diverges: %+v vs %+v", i, ni, ns)
		}
		if ni.MayUse != ns.MayUse || ni.MayDef != ns.MayDef || ni.MustDef != ns.MustDef ||
			ni.Phase1Use() != ns.Phase1Use() {
			t.Fatalf("node %d (routine %d) converged sets diverge:\nincremental: mayUse=%v mayDef=%v mustDef=%v p1=%v\nscratch:     mayUse=%v mayDef=%v mustDef=%v p1=%v",
				i, gs.Nodes[i].Routine, ni.MayUse, ni.MayDef, ni.MustDef, ni.Phase1Use(),
				ns.MayUse, ns.MayDef, ns.MustDef, ns.Phase1Use())
		}
	}
	for i := range gs.Edges {
		ei, es := &gi.Edges[i], &gs.Edges[i]
		if ei.Kind != es.Kind || ei.Src != es.Src || ei.Dst != es.Dst {
			t.Fatalf("edge %d structure diverges: %+v vs %+v", i, ei, es)
		}
		if ei.MayUse != es.MayUse || ei.MayDef != es.MayDef || ei.MustDef != es.MustDef {
			t.Fatalf("edge %d labels diverge: %+v vs %+v", i, ei, es)
		}
	}
	if !reflect.DeepEqual(gi.SavedRestored, gs.SavedRestored) {
		t.Fatalf("saved-restored sets diverge:\nincremental: %v\nscratch:     %v",
			gi.SavedRestored, gs.SavedRestored)
	}
}

func reanalyzeOptionSets() map[string][]Option {
	return map[string][]Option{
		"closed":          {WithClosedWorld()},
		"open":            {WithOpenWorld()},
		"closed-nobranch": {WithClosedWorld(), WithBranchNodes(false)},
		"open-nobranch":   {WithOpenWorld(), WithBranchNodes(false)},
	}
}

func TestReanalyzeMatchesScratch(t *testing.T) {
	for name, opts := range reanalyzeOptionSets() {
		opts := opts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 6; seed++ {
				base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(seed))
				prev, err := Analyze(base, opts...)
				if err != nil {
					t.Fatalf("seed %d: base analysis: %v", seed, err)
				}
				for kind := progen.Mutation(0); kind < progen.NumMutations; kind++ {
					mutant, desc := progen.MutateKind(base, seed*977+uint64(kind), kind)
					inc, err := Reanalyze(prev, mutant, opts...)
					if err != nil {
						t.Fatalf("seed %d %s: Reanalyze: %v", seed, desc, err)
					}
					scratch, err := Analyze(mutant, opts...)
					if err != nil {
						t.Fatalf("seed %d %s: scratch analysis: %v", seed, desc, err)
					}
					t.Logf("seed %d %s: dirty=%d reused=%d resolved=%d", seed, desc,
						inc.Incremental.DirtyRoutines, inc.Incremental.ReusedComponents,
						inc.Incremental.ResolvedComponents)
					checkSameAnalysis(t, inc, scratch)
					if inc.Incremental == nil {
						t.Fatalf("seed %d %s: Incremental stats missing", seed, desc)
					}
				}
			}
		})
	}
}

// TestReanalyzeIdentityEdit re-analyzes with an unchanged program: every
// component must be reused and the result must still match scratch.
func TestReanalyzeIdentityEdit(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(7))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Reanalyze(prev, base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if inc.Incremental.DirtyRoutines != 0 {
		t.Fatalf("identity edit marked %d routines dirty", inc.Incremental.DirtyRoutines)
	}
	if inc.Incremental.ResolvedComponents != 0 {
		t.Fatalf("identity edit re-solved %d components", inc.Incremental.ResolvedComponents)
	}
	checkSameAnalysis(t, inc, prev)
}

// TestReanalyzeChain applies a sequence of edits, re-analyzing each step
// from the previous incremental result, to catch state that only decays
// after repeated reuse.
func TestReanalyzeChain(t *testing.T) {
	base := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(11))
	prev, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for step := 0; step < 8; step++ {
		mutant, desc := progen.Mutate(cur, uint64(1000+step))
		inc, err := Reanalyze(prev, mutant)
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

func TestReanalyzeConfigMismatch(t *testing.T) {
	base := progen.Generate(progen.TestProfile(10), progen.DefaultOptions(3))
	prev, err := Analyze(base, WithClosedWorld())
	if err != nil {
		t.Fatal(err)
	}
	mutant, _ := progen.Mutate(base, 5)
	_, err = Reanalyze(prev, mutant, WithOpenWorld())
	var mismatch *ConfigMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("want ConfigMismatchError, got %v", err)
	}
	if mismatch.Want == mismatch.Got {
		t.Fatalf("mismatch error does not distinguish keys: %v", mismatch)
	}
	// Options that do not affect results must not mismatch.
	if _, err := Reanalyze(prev, mutant, WithClosedWorld(), WithParallelism(2)); err != nil {
		t.Fatalf("result-neutral options rejected: %v", err)
	}
}

func TestConfigKey(t *testing.T) {
	got := DefaultConfig().Key()
	want := "open_world=false,no_branch_nodes=false"
	if got != want {
		t.Fatalf("DefaultConfig().Key() = %q, want %q", got, want)
	}
	if PaperConfig().Key() != "open_world=true,no_branch_nodes=false" {
		t.Fatalf("PaperConfig().Key() = %q", PaperConfig().Key())
	}
	for _, k := range []string{got, PaperConfig().Key()} {
		if k == "" {
			t.Fatal("empty key")
		}
	}
	_ = fmt.Sprintf("%s", got)
}

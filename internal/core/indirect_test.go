package core

import (
	"sync"
	"testing"

	"repro/internal/callstd"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/regset"
)

// nonConformantSrc has an address-taken routine that reads t5 before
// defining it — a violation of the §3.5 calling-standard assumption
// that unknown callees read only argument registers.
const nonConformantSrc = `
.start main
.routine main
  jsri pv
  halt
.routine rogue
.addrtaken
  print t5
  lda v0, 1(zero)
  ret
`

func TestClosedWorldIndirectSummaryIncludesRealUses(t *testing.T) {
	// With the closed-world default, callers of the indirect call must
	// see t5 as used (the rogue routine might be the target).
	a := analyze(t, nonConformantSrc)
	mi := a.Prog.Entry
	s := a.Summary(mi)
	if !s.LiveAtEntry[0].Contains(regset.T5) {
		t.Errorf("closed world: t5 must be live at main entry: %v", s.LiveAtEntry[0])
	}
}

func TestOpenWorldIndirectUsesCallingStandardOnly(t *testing.T) {
	// PaperConfig reproduces §3.5 exactly: the indirect call is assumed
	// to use only the standard's argument registers, so the rogue use
	// of t5 is invisible — the documented (and paper-stated) assumption.
	p := prog.MustAssemble(nonConformantSrc)
	a, err := Analyze(p, WithOpenWorld())
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summary(a.Prog.Entry)
	if s.LiveAtEntry[0].Contains(regset.T5) {
		t.Errorf("open world: t5 must not be live at main entry: %v", s.LiveAtEntry[0])
	}
	if !s.LiveAtEntry[0].Contains(regset.A0) {
		t.Errorf("open world: argument registers are assumed used: %v", s.LiveAtEntry[0])
	}
}

func TestClosedWorldIndirectMustDefIntersects(t *testing.T) {
	// An address-taken routine that defines v0 on only one path: the
	// closed-world indirect summary must not claim v0 must-defined.
	src := `
.start main
.routine main
  jsri pv
  print v0
  halt
.routine maybe
.addrtaken
  beq a0, skip
  lda v0, 1(zero)
skip:
  ret
`
	a := analyze(t, src)
	for _, e := range a.PSG.Edges {
		if e.Kind == EdgeCallReturn && a.PSG.Nodes[e.Src].CallTarget < 0 {
			if e.MustDef.Contains(regset.V0) {
				t.Errorf("closed world: v0 one-sided in callee; must not be in edge MUST-DEF: %v", e.MustDef)
			}
			if !e.MayUse.Contains(regset.A0) {
				t.Errorf("indirect edge must keep the standard's uses: %v", e.MayUse)
			}
		}
	}
}

func TestClosedWorldWithoutAddressTakenFallsBackToStandard(t *testing.T) {
	src := `
.start main
.routine main
  jsri pv
  print v0
  halt
`
	a := analyze(t, src)
	for _, e := range a.PSG.Edges {
		if e.Kind == EdgeCallReturn {
			if !e.MayUse.Contains(regset.A0) || !e.MustDef.Contains(regset.V0) {
				t.Errorf("no address-taken routines: edge must carry the standard summary: use=%v def=%v",
					e.MayUse, e.MustDef)
			}
		}
	}
}

// wantIndirectCallSummary recomputes the indirect-call summary from an
// analysis's final Summaries and its program's address-taken flags.
func wantIndirectCallSummary(a *Analysis) CallSummary {
	std := callstd.UnknownCallSummary()
	cs := CallSummary{Used: std.Used, Defined: std.Defined, Killed: std.Killed}
	if !a.Config.LinkIndirectCalls {
		return cs
	}
	for ri, r := range a.Prog.Routines {
		if r.AddressTaken {
			cs.Used = cs.Used.Union(a.Summaries[ri].CallUsed[0])
			cs.Defined = cs.Defined.Intersect(a.Summaries[ri].CallDefined[0])
			cs.Killed = cs.Killed.Union(a.Summaries[ri].CallKilled[0])
		}
	}
	return cs
}

// TestIndirectCallSummaryMemoized checks the indirect-call summary that
// every constructor fixes once against the aggregate recomputed from the
// final summaries, on a closed-world generated program: for Analyze,
// for both re-analysis entry points across a series of edits, and for
// Rehydrate. Concurrent callers, mixed with the liveness solves that
// read it, must all see that value (run under -race).
func TestIndirectCallSummaryMemoized(t *testing.T) {
	p := progen.Generate(progen.TestProfile(120), progen.DefaultOptions(4))
	taken := 0
	for _, r := range p.Routines {
		if r.AddressTaken {
			taken++
		}
	}
	if taken == 0 {
		t.Fatal("generated program has no address-taken routine; the check would be vacuous")
	}
	a, err := Analyze(p, WithClosedWorld())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, a *Analysis) {
		t.Helper()
		want := wantIndirectCallSummary(a)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for ri := g; ri < len(a.Prog.Routines); ri += 8 {
					a.RoutineLiveness(ri)
					if got := a.IndirectCallSummary(); got != want {
						t.Errorf("%s: IndirectCallSummary = %+v, recomputed %+v", name, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	check("analyze", a)

	moved := 0
	for seed := uint64(1); seed <= 12; seed++ {
		edited, desc := progen.Mutate(p, seed)
		re, err := Reanalyze(a, edited, WithClosedWorld())
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		check("reanalyze "+desc, re)
		if re.IndirectCallSummary() != a.IndirectCallSummary() {
			moved++
		}
		fresh, err := Analyze(p, WithClosedWorld())
		if err != nil {
			t.Fatal(err)
		}
		ip, err := ReanalyzeInPlace(fresh, edited, WithClosedWorld())
		if err != nil {
			t.Fatalf("%s in place: %v", desc, err)
		}
		check("in place "+desc, ip)
	}
	if moved == 0 {
		t.Error("no edit moved the indirect-call summary; a stale memo would go unnoticed")
	}

	rh, err := Rehydrate(p, a.Export(), WithClosedWorld())
	if err != nil {
		t.Fatal(err)
	}
	check("rehydrate", rh)
}

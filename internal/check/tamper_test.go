package check

import (
	"testing"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/regset"
)

// tamperSrc exercises every summary dimension: f reads a0, returns a
// value in v0, saves and restores s0, and clobbers s1 without saving
// it.
const tamperSrc = `
.start main
.routine main
  lda a0, 3(zero)
  jsr f
  print v0
  halt
.routine f
  lda sp, -16(sp)
  st  s0, 0(sp)
  lda s0, 1(zero)
  lda s1, 9(zero)
  print a0
  lda v0, 7(zero)
  ld  s0, 0(sp)
  lda sp, 16(sp)
  ret
`

// TestOraclesCatchTampering is the harness's self-test: each case
// corrupts one facet of a correct analysis and the oracle that guards
// that facet must report it. A harness that stays silent here would
// pass the soak for the wrong reason.
func TestOraclesCatchTampering(t *testing.T) {
	cases := []struct {
		name   string
		oracle string // "invariants", "dynamic" or "labels"
		rules  []string
		tamper func(t *testing.T, a *core.Analysis, fi int)
	}{
		{
			name:   "summary drifts from PSG",
			oracle: "invariants",
			rules:  []string{"summary-projection"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				a.Summary(fi).CallUsed[0] = a.Summary(fi).CallUsed[0].Add(regset.T11)
			},
		},
		{
			name:   "call-defined outside call-killed",
			oracle: "invariants",
			rules:  []string{"defined-subset-killed"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				s := a.Summary(fi)
				s.CallDefined[0] = s.CallDefined[0].Add(regset.T11)
				// Keep the projection consistent so only the subset rule
				// can catch it.
				n := &a.PSG.Nodes[a.PSG.EntryNodes[fi][0]]
				n.MustDef = n.MustDef.Add(regset.T11)
			},
		},
		{
			name:   "node set off the phase-1 fixed point",
			oracle: "invariants",
			rules:  []string{"phase1-fixpoint", "node-must-subset-may"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				n := &a.PSG.Nodes[a.PSG.EntryNodes[fi][0]]
				n.MustDef = n.MustDef.Add(regset.T11)
			},
		},
		{
			name:   "corrupted call-return edge label",
			oracle: "invariants",
			rules:  []string{"call-return-label"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				for i := range a.PSG.Edges {
					if a.PSG.Edges[i].Kind == core.EdgeCallReturn {
						a.PSG.Edges[i].MayUse = a.PSG.Edges[i].MayUse.Add(regset.T11)
						return
					}
				}
				t.Fatal("no call-return edge to corrupt")
			},
		},
		{
			name:   "edge rewired against the CSR index",
			oracle: "invariants",
			rules:  []string{"csr-out-src", "csr-in-dst", "csr-partition"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				e := &a.PSG.Edges[0]
				e.Src = (e.Src + 1) % len(a.PSG.Nodes)
			},
		},
		{
			name:   "caller-saved register claimed saved/restored",
			oracle: "invariants",
			rules:  []string{"saved-restored-callee-saved"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				a.PSG.SavedRestored[fi] = a.PSG.SavedRestored[fi].Add(regset.T0)
				a.Summary(fi).SavedRestored = a.PSG.SavedRestored[fi]
			},
		},
		{
			name:   "flow edge label gains a register",
			oracle: "labels",
			rules:  []string{"label-edge-identical"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				for i := range a.PSG.Edges {
					if e := &a.PSG.Edges[i]; e.Kind == core.EdgeFlow {
						e.MayUse = e.MayUse.Add(regset.T11)
						return
					}
				}
				t.Fatal("no flow edge to corrupt")
			},
		},
		{
			name:   "flow edge retargeted at another sink",
			oracle: "labels",
			rules:  []string{"label-edge-set"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				g := a.PSG
				for i := range g.Edges {
					e := &g.Edges[i]
					if e.Kind != core.EdgeFlow {
						continue
					}
					for j := range g.Nodes {
						n := &g.Nodes[j]
						if j != e.Dst && n.Routine == g.Nodes[e.Src].Routine &&
							(n.Kind == core.NodeCall || n.Kind == core.NodeExit) {
							e.Dst = j
							return
						}
					}
				}
				t.Fatal("no routine with two sinks")
			},
		},
		{
			name:   "dynamic read missing from call-used",
			oracle: "dynamic",
			rules:  []string{"dynamic-use-subset"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				s := a.Summary(fi)
				s.CallUsed[0] = s.CallUsed[0].Remove(regset.A0)
			},
		},
		{
			name:   "dynamic write missing from call-killed",
			oracle: "dynamic",
			rules:  []string{"dynamic-def-subset"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				s := a.Summary(fi)
				s.CallKilled[0] = s.CallKilled[0].Remove(regset.V0)
			},
		},
		{
			name:   "call-defined register never written",
			oracle: "dynamic",
			rules:  []string{"must-def-written"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				s := a.Summary(fi)
				s.CallDefined[0] = s.CallDefined[0].Add(regset.A1)
				s.CallKilled[0] = s.CallKilled[0].Add(regset.A1)
			},
		},
		{
			name:   "clobbered register claimed saved/restored",
			oracle: "dynamic",
			rules:  []string{"saved-restored-value"},
			tamper: func(t *testing.T, a *core.Analysis, fi int) {
				s := a.Summary(fi)
				s.SavedRestored = s.SavedRestored.Add(regset.S1)
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := prog.Assemble(tamperSrc)
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.Analyze(p)
			if err != nil {
				t.Fatal(err)
			}
			fi, ok := p.Index("f")
			if !ok {
				t.Fatal("routine f not found")
			}

			run := func() []Violation {
				switch tc.oracle {
				case "invariants":
					return Invariants(a)
				case "labels":
					return Labels(a)
				}
				return Dynamic(a, 1_000_000)
			}

			// An untampered analysis must be clean, or the case would
			// "catch" noise rather than the corruption.
			if clean := run(); len(clean) > 0 {
				t.Fatalf("oracle not clean before tampering: %v", clean)
			}

			tc.tamper(t, a, fi)
			vs := run()
			if !hasAnyRule(vs, tc.rules) {
				t.Fatalf("tampering went uncaught: want one of %v, got %v", tc.rules, vs)
			}
		})
	}
}

func hasAnyRule(vs []Violation, rules []string) bool {
	for _, v := range vs {
		for _, r := range rules {
			if v.Rule == r {
				return true
			}
		}
	}
	return false
}

// TestDynamicCatchesLegacySavedRestoredBug replays the satellite bug
// the harness was built to flush out: a slot-blind §3.4 scan claims s0
// saved/restored even though its save slot was overwritten, which the
// value check observes directly at the ret.
func TestDynamicCatchesLegacySavedRestoredBug(t *testing.T) {
	src := `
.start main
.routine main
  jsr f
  halt
.routine f
  lda sp, -16(sp)
  st  s0, 0(sp)
  st  ra, 0(sp)
  lda s0, 7(zero)
  ld  s0, 0(sp)
  ld  ra, 0(sp)
  lda sp, 16(sp)
  ret
`
	p, err := prog.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Dynamic(a, 1_000_000); len(vs) > 0 {
		t.Fatalf("fixed scan still flagged: %v", vs)
	}
	// Re-impose the legacy claim: s0 saved/restored, hence filtered out
	// of the outward summary — exactly what the slot-blind scan
	// published.
	fi, _ := p.Index("f")
	s := a.Summary(fi)
	s.SavedRestored = s.SavedRestored.Add(regset.S0)
	s.CallKilled[0] = s.CallKilled[0].Remove(regset.S0)
	vs := Dynamic(a, 1_000_000)
	if !hasAnyRule(vs, []string{"saved-restored-value"}) {
		t.Fatalf("legacy saved/restored bug not caught dynamically: %v", vs)
	}
}

package check

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/prog"
)

// diffResult carries the differential runner's findings plus the two
// anchor analyses (closed and open world, default options, parallelism
// 1) the other oracles reuse.
type diffResult struct {
	violations []Violation
	closed     *core.Analysis
	open       *core.Analysis
}

// diffConfig is one cell of the option matrix.
type diffConfig struct {
	open        bool
	branchNodes bool
	parallelism int
}

func (d diffConfig) String() string {
	world := "closed"
	if d.open {
		world = "open"
	}
	return fmt.Sprintf("%s/branch=%v/par=%d", world, d.branchNodes, d.parallelism)
}

func (d diffConfig) options() []core.Option {
	opts := []core.Option{
		core.WithBranchNodes(d.branchNodes),
		core.WithParallelism(d.parallelism),
	}
	if d.open {
		opts = append(opts, core.WithOpenWorld())
	} else {
		opts = append(opts, core.WithClosedWorld())
	}
	return opts
}

// differential runs the analysis across the full option matrix — world
// × branch nodes × parallelism — and checks three relations:
//
//   - within one world, every configuration publishes identical
//     summaries: branch nodes and the worker count are representation
//     and scheduling choices, not semantics ("config-determinism");
//   - each world's liveness is bounded by the context-insensitive
//     supergraph baseline, which by construction merges every calling
//     context the PSG analysis distinguishes ("baseline-subset");
//   - the closed world refines the open world exactly as §3.5
//     prescribes: linking indirect calls to the address-taken routines
//     can only widen may-sets and narrow the must-set
//     ("world-monotone").
func differential(p *prog.Program, parallelisms []int) diffResult {
	c := &collector{oracle: "differential"}
	res := diffResult{}

	for _, open := range []bool{false, true} {
		var anchor *core.Analysis
		var anchorCfg diffConfig
		for _, branch := range []bool{true, false} {
			for _, par := range parallelisms {
				cfg := diffConfig{open: open, branchNodes: branch, parallelism: par}
				a, err := core.Analyze(p, cfg.options()...)
				if err != nil {
					if !open && branch && par == parallelisms[0] {
						// First cell: the program itself is rejected.
						c.vs = append(c.vs, Violation{Oracle: "analyze", Rule: "rejected", Detail: err.Error()})
						return diffResult{violations: c.vs}
					}
					c.addf("config-determinism", "", "%s failed (%v) where the first configuration succeeded", cfg, err)
					continue
				}
				if anchor == nil {
					anchor, anchorCfg = a, cfg
					continue
				}
				compareSummaries(c, anchorCfg, anchor, cfg, a)
			}
		}
		if anchor == nil {
			return diffResult{violations: c.result()}
		}
		if open {
			res.open = anchor
		} else {
			res.closed = anchor
		}
		baselineSubset(c, anchor, open)
	}

	worldMonotone(c, res.closed, res.open)
	res.violations = c.result()
	return res
}

// compareSummaries requires two configurations of the same world to
// publish byte-identical routine summaries.
func compareSummaries(c *collector, refCfg diffConfig, ref *core.Analysis, gotCfg diffConfig, got *core.Analysis) {
	for ri := range ref.Prog.Routines {
		name := ref.Prog.Routines[ri].Name
		rs, gs := ref.Summary(ri), got.Summary(ri)
		if rs.SavedRestored != gs.SavedRestored {
			c.addf("config-determinism", name, "saved/restored %v (%s) ≠ %v (%s)",
				rs.SavedRestored, refCfg, gs.SavedRestored, gotCfg)
		}
		if len(rs.CallUsed) != len(gs.CallUsed) || len(rs.LiveAtExit) != len(gs.LiveAtExit) {
			c.addf("config-determinism", name, "summary shape differs between %s and %s", refCfg, gotCfg)
			continue
		}
		for e := range rs.CallUsed {
			if rs.CallUsed[e] != gs.CallUsed[e] || rs.CallDefined[e] != gs.CallDefined[e] ||
				rs.CallKilled[e] != gs.CallKilled[e] || rs.LiveAtEntry[e] != gs.LiveAtEntry[e] {
				c.addf("config-determinism", name, "entry %d summary differs between %s and %s", e, refCfg, gotCfg)
			}
		}
		for x := range rs.LiveAtExit {
			if rs.LiveAtExit[x] != gs.LiveAtExit[x] || rs.ExitBlocks[x] != gs.ExitBlocks[x] {
				c.addf("config-determinism", name, "exit %d differs between %s and %s", x, refCfg, gotCfg)
			}
		}
	}
}

// baselineSubset bounds the PSG analysis's liveness by the
// context-insensitive supergraph solution of the same world: merging
// calling contexts and dropping the §3.4 filter can only grow the
// baseline's sets, so core exceeding the baseline anywhere means one of
// the two is wrong about the program.
func baselineSubset(c *collector, a *core.Analysis, open bool) {
	var opts []baseline.Option
	if open {
		opts = append(opts, baseline.WithOpenWorld())
	}
	_, b := baseline.Analyze(a.Prog, opts...)
	world := "closed"
	if open {
		world = "open"
	}
	for ri := range a.Prog.Routines {
		name := a.Prog.Routines[ri].Name
		s := a.Summary(ri)
		for e := range s.LiveAtEntry {
			if bl := b.LiveAtEntry(ri, e); !s.LiveAtEntry[e].SubsetOf(bl) {
				c.addf("baseline-subset", name,
					"%s world: live-at-entry %d %v exceeds supergraph %v", world, e, s.LiveAtEntry[e], bl)
			}
		}
		for x := range s.LiveAtExit {
			if bl := b.LiveAtBlockOut(ri, s.ExitBlocks[x]); !s.LiveAtExit[x].SubsetOf(bl) {
				c.addf("baseline-subset", name,
					"%s world: live-at-exit %d %v exceeds supergraph %v", world, x, s.LiveAtExit[x], bl)
			}
		}
	}
}

// worldMonotone checks the §3.5 refinement direction between the two
// worlds: the open world assumes indirect calls follow the calling
// standard, the closed world additionally links them to every
// address-taken routine, so closing the world can only widen the
// may-summaries and narrow the must-summary.
func worldMonotone(c *collector, closed, open *core.Analysis) {
	if closed == nil || open == nil {
		return
	}
	oi, ci := open.IndirectCallSummary(), closed.IndirectCallSummary()
	if !oi.Used.SubsetOf(ci.Used) || !oi.Killed.SubsetOf(ci.Killed) || !ci.Defined.SubsetOf(oi.Defined) {
		c.addf("world-monotone", "",
			"indirect summary open (%v, %v, %v) not refined by closed (%v, %v, %v)",
			oi.Used, oi.Defined, oi.Killed, ci.Used, ci.Defined, ci.Killed)
	}
	for ri := range closed.Prog.Routines {
		name := closed.Prog.Routines[ri].Name
		os, cs := open.Summary(ri), closed.Summary(ri)
		if os.SavedRestored != cs.SavedRestored {
			c.addf("world-monotone", name, "saved/restored differs between worlds: %v vs %v",
				os.SavedRestored, cs.SavedRestored)
		}
		if len(os.CallUsed) != len(cs.CallUsed) {
			continue
		}
		for e := range os.CallUsed {
			if !os.CallUsed[e].SubsetOf(cs.CallUsed[e]) || !os.CallKilled[e].SubsetOf(cs.CallKilled[e]) {
				c.addf("world-monotone", name,
					"entry %d: open summary (used %v, killed %v) not contained in closed (used %v, killed %v)",
					e, os.CallUsed[e], os.CallKilled[e], cs.CallUsed[e], cs.CallKilled[e])
			}
		}
	}
}

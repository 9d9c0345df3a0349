package check

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/progen"
)

// The incremental oracle cross-examines core.Reanalyze against
// core.Analyze: after any edit, re-solving only the dirty cone must
// land on byte-for-byte the state a from-scratch analysis computes —
// same summaries, same structural counts, same converged per-node and
// per-edge sets, same entry, exit and caller-edge lists and adjacency.
// It runs the comparison across the full option matrix (world × branch
// nodes × parallelism), because the incremental path has its own
// scheduling and must be deterministic under all of them. Each cell
// also drives the edit backwards through the consuming
// core.ReanalyzeInPlace and requires it to reproduce the base analysis
// byte-for-byte.
//
// The cells of the first parallelism add three legs. One restores prev
// from its saved state, requires the restore to equal prev, and applies
// the forward edit in place to it, the warm start the daemon's snapshot
// path hands out. The second re-checks prev against a fresh analysis
// after the reverse leg: the copying result shares its layout-derived
// arrays with prev, so a consuming write into one of them would change
// prev and the reverse result alike, which their mutual comparison
// cannot see. The third re-analyzes the forward edit from prev once
// more and compares it with the scratch result: that run reads prev's
// shared adjacency, return-site links and schedule, which the second
// leg's comparison of converged sets does not.

// The dead-code leg feeds the engine the edit the optimizer makes: one
// round of dead-code elimination, compacted. progen.Mutate only
// replaces instructions in place; this edit deletes them, so an emptied
// block renumbers the blocks after it. No PSG node or edge moves (the
// deleted instructions neither branch nor call), so every re-analysis
// must take the shape-preserving path. Each cell re-analyzes from the
// input's analysis to the optimized program's and back, first copying,
// then in place from the copies.

// IncrementalDeadCode runs the dead-code leg over p across the option
// matrix. A program the round leaves unchanged yields no violation.
func IncrementalDeadCode(p *prog.Program, parallelisms []int) []Violation {
	c := &collector{oracle: "incremental"}
	o := opt.DefaultOptions()
	o.MaxRounds, o.NoSpillRemoval, o.NoSaveRestore = 1, true, true
	out, rep, err := opt.Optimize(p, o)
	if err != nil {
		c.addf("incremental-deadcode-rejected", "", "dead-code round failed: %v", err)
		return c.result()
	}
	if rep.Removed() == 0 {
		return nil
	}
	desc := fmt.Sprintf("dead-code round (%d deleted)", rep.Removed())
	forEachCell(parallelisms, func(cfg diffConfig, _ bool) {
		checkDeadCodeCell(c, cfg, p, out, desc)
	})
	return c.result()
}

func checkDeadCodeCell(c *collector, cfg diffConfig, p, out *prog.Program, desc string) {
	ap, err := core.Analyze(p, cfg.options()...)
	if err != nil {
		c.addf("incremental-base-rejected", "", "%s: %s: input analysis failed: %v", cfg, desc, err)
		return
	}
	aout, err := core.Analyze(out, cfg.options()...)
	if err != nil {
		c.addf("incremental-scratch-rejected", "", "%s: %s: output analysis failed: %v", cfg, desc, err)
		return
	}
	fwd, err := core.Reanalyze(ap, out, cfg.options()...)
	if err != nil {
		c.addf("incremental-rejected", "", "%s: %s: Reanalyze failed: %v", cfg, desc, err)
		return
	}
	compareAnalyses(c, cfg, desc, fwd, aout)
	back, err := core.Reanalyze(aout, p, cfg.options()...)
	if err != nil {
		c.addf("incremental-rejected", "", "%s: %s: Reanalyze (reverse) failed: %v", cfg, desc, err)
		return
	}
	compareAnalyses(c, cfg, desc+" (reverse)", back, ap)
	fwdIn, err := core.ReanalyzeInPlace(back, out, cfg.options()...)
	if err != nil {
		c.addf("incremental-inplace-rejected", "", "%s: %s: ReanalyzeInPlace failed: %v", cfg, desc, err)
		return
	}
	compareAnalyses(c, cfg, desc+" (in place)", fwdIn, aout)
	backIn, err := core.ReanalyzeInPlace(fwd, p, cfg.options()...)
	if err != nil {
		c.addf("incremental-inplace-rejected", "", "%s: %s: ReanalyzeInPlace (reverse) failed: %v", cfg, desc, err)
		return
	}
	compareAnalyses(c, cfg, desc+" (reverse, in place)", backIn, ap)
	for _, a := range []*core.Analysis{fwd, back, fwdIn, backIn} {
		if !a.Incremental.ShapePreserving {
			c.addf("incremental-path", "", "%s: %s: a re-analysis took the general path", cfg, desc)
			return
		}
	}
}

// IncrementalPair checks one (base, mutant) program pair across the
// option matrix. desc labels the edit in violation details.
func IncrementalPair(base, mutant *prog.Program, desc string, parallelisms []int) []Violation {
	c := &collector{oracle: "incremental"}
	forEachCell(parallelisms, func(cfg diffConfig, first bool) {
		checkIncrementalCell(c, cfg, base, mutant, desc, first)
	})
	return c.result()
}

// forEachCell calls fn for every cell of the option matrix, world ×
// branch nodes × parallelism (nil parallelisms selects {1, 2, 8});
// first marks the cells of the first parallelism.
func forEachCell(parallelisms []int, fn func(cfg diffConfig, first bool)) {
	if len(parallelisms) == 0 {
		parallelisms = []int{1, 2, 8}
	}
	for _, open := range []bool{false, true} {
		for _, branch := range []bool{true, false} {
			for i, par := range parallelisms {
				fn(diffConfig{open: open, branchNodes: branch, parallelism: par}, i == 0)
			}
		}
	}
}

func checkIncrementalCell(c *collector, cfg diffConfig, base, mutant *prog.Program, desc string, extraLegs bool) {
	prev, err := core.Analyze(base, cfg.options()...)
	if err != nil {
		c.addf("incremental-base-rejected", "", "%s: %s: base analysis failed: %v", cfg, desc, err)
		return
	}
	inc, err := core.Reanalyze(prev, mutant, cfg.options()...)
	if err != nil {
		c.addf("incremental-rejected", "", "%s: %s: Reanalyze failed: %v", cfg, desc, err)
		return
	}
	scratch, err := core.Analyze(mutant, cfg.options()...)
	if err != nil {
		c.addf("incremental-scratch-rejected", "", "%s: %s: scratch analysis failed: %v", cfg, desc, err)
		return
	}
	if inc.Incremental == nil {
		c.addf("incremental-stats-missing", "", "%s: %s: Reanalyze result carries no IncrementalStats", cfg, desc)
	}
	compareAnalyses(c, cfg, desc, inc, scratch)
	if extraLegs {
		checkRestoredInPlace(c, cfg, base, mutant, desc, prev, inc, scratch)
	}

	// Reverse edit through the consuming path: un-doing the mutation via
	// ReanalyzeInPlace must land back on the base analysis exactly. inc
	// is disposable here (it was fully compared above), which is the
	// contract ReanalyzeInPlace asks for; prev stays live as the oracle.
	// The reverse of a structural edit (e.g. un-adding a routine) takes
	// the general path, so both of the engine's paths get exercised.
	back, err := core.ReanalyzeInPlace(inc, base, cfg.options()...)
	if err != nil {
		c.addf("incremental-inplace-rejected", "", "%s: %s: ReanalyzeInPlace (reverse) failed: %v", cfg, desc, err)
		return
	}
	compareAnalyses(c, cfg, desc+" (reverse, in place)", back, prev)
	if extraLegs {
		fresh, err := core.Analyze(base, cfg.options()...)
		if err != nil {
			c.addf("incremental-base-rejected", "", "%s: %s: fresh base analysis failed: %v", cfg, desc, err)
			return
		}
		compareAnalyses(c, cfg, desc+" (base after in-place reverse)", prev, fresh)
		again, err := core.Reanalyze(prev, mutant, cfg.options()...)
		if err != nil {
			c.addf("incremental-rejected", "", "%s: %s: second Reanalyze from prev failed: %v", cfg, desc, err)
			return
		}
		compareAnalyses(c, cfg, desc+" (again from prev)", again, scratch)
	}
}

// checkRestoredInPlace requires prev's snapshot restore to equal prev,
// then applies the forward edit in place to the restore and requires
// the scratch result and the same path the copying re-analysis took; a
// body edit never changes the PSG shape, so it must take the
// shape-preserving path.
func checkRestoredInPlace(c *collector, cfg diffConfig, base, mutant *prog.Program, desc string, prev, inc, scratch *core.Analysis) {
	restored, err := core.Rehydrate(base, prev.Export(), cfg.options()...)
	if err != nil {
		c.addf("incremental-restore-rejected", "", "%s: %s: Rehydrate failed: %v", cfg, desc, err)
		return
	}
	compareAnalyses(c, cfg, desc+" (restored)", restored, prev)
	fwd, err := core.ReanalyzeInPlace(restored, mutant, cfg.options()...)
	if err != nil {
		c.addf("incremental-inplace-rejected", "", "%s: %s: ReanalyzeInPlace (restored) failed: %v", cfg, desc, err)
		return
	}
	compareAnalyses(c, cfg, desc+" (restored, in place)", fwd, scratch)
	shape := fwd.Incremental.ShapePreserving
	if shape != inc.Incremental.ShapePreserving || (!shape && strings.HasPrefix(desc, "body-edit")) {
		c.addf("incremental-path", "", "%s: %s: restored in-place shape-preserving=%v, copying=%v",
			cfg, desc, shape, inc.Incremental.ShapePreserving)
	}
}

// compareAnalyses requires the incremental result to equal the scratch
// result in everything observable: summaries, structural counts, the
// full converged PSG state and its layout-derived lists and adjacency.
func compareAnalyses(c *collector, cfg diffConfig, desc string, inc, scratch *core.Analysis) {
	st, si := &scratch.Stats, &inc.Stats
	if si.Routines != st.Routines || si.Instructions != st.Instructions ||
		si.BasicBlocks != st.BasicBlocks || si.CFGArcs != st.CFGArcs ||
		si.PSGNodes != st.PSGNodes || si.PSGEdges != st.PSGEdges ||
		si.SCCComponents != st.SCCComponents {
		c.addf("incremental-counts", "",
			"%s: %s: structural counts differ: incremental (r=%d i=%d b=%d a=%d n=%d e=%d c=%d) vs scratch (r=%d i=%d b=%d a=%d n=%d e=%d c=%d)",
			cfg, desc,
			si.Routines, si.Instructions, si.BasicBlocks, si.CFGArcs, si.PSGNodes, si.PSGEdges, si.SCCComponents,
			st.Routines, st.Instructions, st.BasicBlocks, st.CFGArcs, st.PSGNodes, st.PSGEdges, st.SCCComponents)
		return
	}

	for ri := range scratch.Prog.Routines {
		name := scratch.Prog.Routines[ri].Name
		rs, gs := scratch.Summary(ri), inc.Summary(ri)
		if rs.SavedRestored != gs.SavedRestored {
			c.addf("incremental-summaries", name, "%s: %s: saved/restored %v (incremental) ≠ %v (scratch)",
				cfg, desc, gs.SavedRestored, rs.SavedRestored)
		}
		if len(rs.CallUsed) != len(gs.CallUsed) || len(rs.LiveAtExit) != len(gs.LiveAtExit) {
			c.addf("incremental-summaries", name, "%s: %s: summary shape differs", cfg, desc)
			continue
		}
		for e := range rs.CallUsed {
			if rs.CallUsed[e] != gs.CallUsed[e] || rs.CallDefined[e] != gs.CallDefined[e] ||
				rs.CallKilled[e] != gs.CallKilled[e] || rs.LiveAtEntry[e] != gs.LiveAtEntry[e] {
				c.addf("incremental-summaries", name,
					"%s: %s: entry %d differs: incremental (used %v def %v kill %v live %v) vs scratch (used %v def %v kill %v live %v)",
					cfg, desc, e,
					gs.CallUsed[e], gs.CallDefined[e], gs.CallKilled[e], gs.LiveAtEntry[e],
					rs.CallUsed[e], rs.CallDefined[e], rs.CallKilled[e], rs.LiveAtEntry[e])
			}
		}
		for x := range rs.LiveAtExit {
			if rs.LiveAtExit[x] != gs.LiveAtExit[x] || rs.ExitBlocks[x] != gs.ExitBlocks[x] {
				c.addf("incremental-summaries", name, "%s: %s: exit %d differs", cfg, desc, x)
			}
		}
	}

	gi, gs := inc.PSG, scratch.PSG
	if len(gi.Nodes) != len(gs.Nodes) || len(gi.Edges) != len(gs.Edges) {
		c.addf("incremental-psg", "", "%s: %s: PSG shape differs: %d/%d nodes, %d/%d edges",
			cfg, desc, len(gi.Nodes), len(gs.Nodes), len(gi.Edges), len(gs.Edges))
		return
	}
	for i := range gs.Nodes {
		ni, ns := &gi.Nodes[i], &gs.Nodes[i]
		if ni.Kind != ns.Kind || ni.Routine != ns.Routine || ni.Block != ns.Block ||
			ni.CallTarget != ns.CallTarget || ni.CallEntry != ns.CallEntry || ni.Unknown != ns.Unknown {
			c.addf("incremental-psg", routineName(scratch, ns.Routine),
				"%s: %s: node %d structure differs", cfg, desc, i)
			return
		}
		if ni.MayUse != ns.MayUse || ni.MayDef != ns.MayDef || ni.MustDef != ns.MustDef ||
			ni.Phase1Use() != ns.Phase1Use() {
			c.addf("incremental-psg", routineName(scratch, ns.Routine),
				"%s: %s: node %d converged sets differ: incremental (mayUse %v mayDef %v mustDef %v p1 %v) vs scratch (mayUse %v mayDef %v mustDef %v p1 %v)",
				cfg, desc, i, ni.MayUse, ni.MayDef, ni.MustDef, ni.Phase1Use(),
				ns.MayUse, ns.MayDef, ns.MustDef, ns.Phase1Use())
			return
		}
	}
	for i := range gs.Edges {
		ei, es := &gi.Edges[i], &gs.Edges[i]
		if ei.Kind != es.Kind || ei.Src != es.Src || ei.Dst != es.Dst {
			c.addf("incremental-psg", "", "%s: %s: edge %d structure differs", cfg, desc, i)
			return
		}
		if ei.MayUse != es.MayUse || ei.MayDef != es.MayDef || ei.MustDef != es.MustDef {
			c.addf("incremental-psg", routineName(scratch, gs.Nodes[es.Src].Routine),
				"%s: %s: edge %d labels differ: incremental (%v %v %v) vs scratch (%v %v %v)",
				cfg, desc, i, ei.MayUse, ei.MayDef, ei.MustDef, es.MayUse, es.MayDef, es.MustDef)
			return
		}
	}
	compareLayout(c, cfg, desc, inc, scratch)
}

// compareLayout requires two PSGs of equal shape to agree on everything
// derived from the slab layout: each routine's entry, exit and
// per-entrance caller-edge lists, and each node's out- and in-edges.
// Lists compare element-wise, so a nil list equals an empty one.
func compareLayout(c *collector, cfg diffConfig, desc string, inc, scratch *core.Analysis) {
	gi, gs := inc.PSG, scratch.PSG
	for ri := range scratch.Prog.Routines {
		name := scratch.Prog.Routines[ri].Name
		if !slices.Equal(gi.EntryNodes[ri], gs.EntryNodes[ri]) {
			c.addf("incremental-layout", name, "%s: %s: entry nodes %v (incremental) ≠ %v (scratch)",
				cfg, desc, gi.EntryNodes[ri], gs.EntryNodes[ri])
		}
		if !slices.Equal(gi.ExitNodes[ri], gs.ExitNodes[ri]) {
			c.addf("incremental-layout", name, "%s: %s: exit nodes %v (incremental) ≠ %v (scratch)",
				cfg, desc, gi.ExitNodes[ri], gs.ExitNodes[ri])
		}
		if !slices.EqualFunc(gi.CallerEdges[ri], gs.CallerEdges[ri], slices.Equal[[]int]) {
			c.addf("incremental-layout", name, "%s: %s: caller edges %v (incremental) ≠ %v (scratch)",
				cfg, desc, gi.CallerEdges[ri], gs.CallerEdges[ri])
		}
	}
	for id := range gs.Nodes {
		if !slices.Equal(gi.OutEdges(id), gs.OutEdges(id)) || !slices.Equal(gi.InEdges(id), gs.InEdges(id)) {
			c.addf("incremental-layout", routineName(scratch, gs.Nodes[id].Routine),
				"%s: %s: node %d adjacency differs: incremental (out %v in %v) vs scratch (out %v in %v)",
				cfg, desc, id, gi.OutEdges(id), gi.InEdges(id), gs.OutEdges(id), gs.InEdges(id))
			return
		}
	}
}

func routineName(a *core.Analysis, ri int) string {
	if ri >= 0 && ri < len(a.Prog.Routines) {
		return a.Prog.Routines[ri].Name
	}
	return ""
}

// GeneratedIncremental runs the incremental oracle over n generated
// (program, mutation) pairs: seeds seed0 … seed0+n−1 each generate a
// base program, apply one random edit (progen.Mutate), and compare
// Reanalyze against Analyze across the option matrix. Every second
// base program also runs the dead-code leg, whose edit dirties most
// routines and so costs about twice a pair. Every fourth pair
// additionally chains a second edit on top of the first, with the
// incremental result as the warm-start, to catch state that only
// decays after repeated reuse.
func GeneratedIncremental(n int, seed0 uint64, opts *Options, w io.Writer) *Report {
	rep := &Report{}
	for i := 0; i < n; i++ {
		seed := seed0 + uint64(i)
		base := progen.Generate(progen.TestProfile(12+int(seed%18)), progen.DefaultOptions(seed))
		mutant, desc := progen.Mutate(base, seed^0x9e3779b97f4a7c15)
		vs := IncrementalPair(base, mutant, desc, opts.parallelism())
		if i%2 == 1 {
			vs = append(vs, IncrementalDeadCode(base, opts.parallelism())...)
		}
		if i%4 == 0 {
			second, desc2 := progen.Mutate(mutant, seed*2654435761+1)
			vs = append(vs, incrementalChain(base, mutant, second, desc+"; then "+desc2)...)
		}
		rep.Programs++
		if len(vs) > 0 && w != nil {
			fmt.Fprintf(w, "seed %d (%s): %d violation(s)\n", seed, desc, len(vs))
			for _, v := range vs {
				fmt.Fprintf(w, "  %s\n", v)
			}
		}
		rep.Violations = append(rep.Violations, vs...)
		if w != nil && (i+1)%500 == 0 {
			fmt.Fprintf(w, "checked %d/%d pairs, %d violation(s)\n", i+1, n, len(rep.Violations))
		}
	}
	return rep
}

// incrementalChain re-analyzes twice in a row — base → first → second —
// reusing the first incremental result as the second warm-start, under
// the default configuration only (the matrix is covered by the
// single-step check).
func incrementalChain(base, first, second *prog.Program, desc string) []Violation {
	c := &collector{oracle: "incremental"}
	prev, err := core.Analyze(base)
	if err != nil {
		c.addf("incremental-base-rejected", "", "chain %s: %v", desc, err)
		return c.result()
	}
	mid, err := core.Reanalyze(prev, first)
	if err != nil {
		c.addf("incremental-rejected", "", "chain %s: first step: %v", desc, err)
		return c.result()
	}
	inc, err := core.Reanalyze(mid, second)
	if err != nil {
		c.addf("incremental-rejected", "", "chain %s: second step: %v", desc, err)
		return c.result()
	}
	scratch, err := core.Analyze(second)
	if err != nil {
		c.addf("incremental-scratch-rejected", "", "chain %s: %v", desc, err)
		return c.result()
	}
	compareAnalyses(c, diffConfig{branchNodes: true, parallelism: 0}, "chain "+desc, inc, scratch)
	return c.result()
}

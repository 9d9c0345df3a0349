package opt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/prog"
)

// Report summarizes what the optimizer did.
type Report struct {
	// DeadInstructions counts instructions removed by interprocedural
	// dead-code elimination (Figure 1(a)/(b)).
	DeadInstructions int

	// SpillsRemoved counts store/load instructions removed around
	// calls (Figure 1(c)).
	SpillsRemoved int

	// SaveRestoreRewrites counts callee-saved → caller-saved register
	// reassignments (Figure 1(d)); each deletes one save and one
	// restore per entrance/exit.
	SaveRestoreRewrites int

	// Rounds is the number of analyze-transform iterations that
	// performed work. An already-optimal program reports 0: the
	// optimizer still ran every pass once, but no round changed
	// anything.
	Rounds int

	// Reanalyses counts the warm-start incremental re-analyses that
	// kept the summaries consistent with the edits between passes.
	Reanalyses int

	// InstructionsBefore and InstructionsAfter measure static code
	// size.
	InstructionsBefore int
	InstructionsAfter  int
}

// Removed returns the total number of instructions deleted.
func (r *Report) Removed() int { return r.InstructionsBefore - r.InstructionsAfter }

func (r *Report) String() string {
	return fmt.Sprintf("opt: %d dead, %d spills removed, %d save/restore rewrites, %d→%d instructions in %d rounds",
		r.DeadInstructions, r.SpillsRemoved, r.SaveRestoreRewrites,
		r.InstructionsBefore, r.InstructionsAfter, r.Rounds)
}

// Options configures the optimizer.
type Options struct {
	// Analysis configures the interprocedural analysis the passes
	// consult. Its Parallelism also sizes the optimizer's own worker
	// pool, and its Metrics registry receives the opt/* counters.
	Analysis core.Config

	// MaxRounds bounds the analyze-transform iterations (default 4).
	MaxRounds int

	// Disable individual passes.
	NoDeadCode     bool
	NoSpillRemoval bool
	NoSaveRestore  bool

	// NoWarmStart re-analyzes from scratch between passes instead of
	// warm-starting with core.ReanalyzeInPlace. The result is
	// byte-identical (the re-analysis contract); the knob exists to
	// quantify the warm-start advantage (BenchmarkOptimizeWarmStart,
	// about 1.4× on acad at scale 0.1), not for production use.
	NoWarmStart bool

	// ConservativeLiveness restricts dead-code elimination to what a
	// traditional compiler could justify: intraprocedural liveness
	// with calling-standard assumptions at every call and exit. Used
	// to model the paper's baseline ("the same highly optimizing
	// back-end"), so the measured improvement is what interprocedural
	// summaries add.
	ConservativeLiveness bool
}

// DefaultOptions returns the standard pipeline configuration.
func DefaultOptions() Options {
	return Options{Analysis: core.DefaultConfig(), MaxRounds: 4}
}

// CompilerOptions returns the baseline pipeline modelling a traditional
// optimizing compiler: dead-code elimination only, justified without
// any interprocedural information.
func CompilerOptions() Options {
	return Options{
		Analysis:             core.DefaultConfig(),
		MaxRounds:            4,
		NoSpillRemoval:       true,
		NoSaveRestore:        true,
		ConservativeLiveness: true,
	}
}

// Optimize clones p and applies the Figure 1 optimizations to the clone
// until a fixed point (or the round budget) is reached. Each pass runs
// against summaries consistent with the current code: the program is
// analyzed once, and every pass's edit set is folded back in with a
// warm-start incremental re-analysis. Every intermediate analysis is
// the loop's alone, so the re-analysis runs in place
// (core.ReanalyzeInPlace) and a round costs O(edits) rather than
// O(program). The passes themselves fan out over the call graph's
// condensation waves; the result is byte-identical at any
// Analysis.Parallelism.
func Optimize(p *prog.Program, opts Options) (*prog.Program, *Report, error) {
	out, _, rep, err := OptimizeAnalyzed(p, opts)
	return out, rep, err
}

// OptimizeAnalyzed is Optimize, additionally returning the converged
// analysis of the optimized program — the warm-start loop's final
// state, which is exactly what a from-scratch analysis of the result
// would produce. Servers cache it instead of re-solving.
func OptimizeAnalyzed(p *prog.Program, opts Options) (*prog.Program, *core.Analysis, *Report, error) {
	// Pre-existing nops are folded away once, before the first
	// analysis, so the warm-start loop only ever compacts its own edit
	// sets.
	cur := p.Clone()
	Compact(cur)
	a, err := core.Analyze(cur, core.WithConfig(opts.Analysis))
	if err != nil {
		return nil, nil, nil, err
	}
	return optimize(a, true, p.NumInstructions(), opts)
}

// OptimizeFrom is OptimizeAnalyzed for a caller that already holds
// prev, the analysis of prev.Prog under opts.Analysis: the optimizer
// starts from it instead of analyzing the program again. When the
// program holds nops, the compacted clone is re-analyzed warm from
// prev. Neither prev nor prev.Prog is modified, and prev stays
// queryable; the optimized program may share the routines no pass
// edited with prev.Prog. The result is the one OptimizeAnalyzed
// returns for prev.Prog.
func OptimizeFrom(prev *core.Analysis, opts Options) (*prog.Program, *core.Analysis, *Report, error) {
	a, owned := prev, false
	if cur := prev.Prog.Clone(); Compact(cur) > 0 {
		var err error
		if a, err = core.Reanalyze(prev, cur, core.WithConfig(opts.Analysis)); err != nil {
			return nil, nil, nil, err
		}
		owned = true
	}
	return optimize(a, owned, prev.Prog.NumInstructions(), opts)
}

// optimize runs the pass loop from a, the analysis of the nop-free
// program to optimize; before is the instruction count of the
// caller's input. a.Prog is never modified: every pass edits a
// copy-on-write view and re-analyzes into a fresh analysis. owned
// reports that a belongs to the loop: every analysis after it does, so
// each re-analysis takes over its predecessor's storage
// (core.ReanalyzeInPlace), except a first one from a caller's analysis,
// which copies.
func optimize(a *core.Analysis, owned bool, before int, opts Options) (*prog.Program, *core.Analysis, *Report, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 4
	}
	m := opts.Analysis.Metrics
	workers := opts.Analysis.Workers()
	rep := &Report{InstructionsBefore: before}
	var err error

	// Pass order matters: the save/restore reassignment (d) and spill
	// removal (c) must see the compiler's patterns before dead-code
	// elimination dismantles them (interprocedural liveness already
	// proves a dead restore deletable, which would leave the paired
	// store behind).
	type pass struct {
		enabled bool
		counter string
		tally   *int
		run     func(a *core.Analysis, e *editSet) int
	}
	passes := []pass{
		{!opts.NoSaveRestore, "opt/saverestore_rewrites", &rep.SaveRestoreRewrites,
			func(a *core.Analysis, e *editSet) int {
				return reassignCalleeSaved(a, e, workers)
			}},
		{!opts.NoSpillRemoval, "opt/spills_removed", &rep.SpillsRemoved,
			func(a *core.Analysis, e *editSet) int {
				return removeCallSpills(a, e, workers)
			}},
		{!opts.NoDeadCode, "opt/dead_instructions", &rep.DeadInstructions,
			func(a *core.Analysis, e *editSet) int {
				return eliminateDeadCode(a, e, opts.ConservativeLiveness, workers)
			}},
	}
	for round := 0; round < opts.MaxRounds; round++ {
		changed := 0
		for _, ps := range passes {
			if !ps.enabled {
				continue
			}
			e := newEditSet(a.Prog)
			n := ps.run(a, e)
			if n == 0 {
				continue
			}
			*ps.tally += n
			changed += n
			m.Counter(ps.counter).Add(uint64(n))
			e.compact()
			switch {
			case opts.NoWarmStart:
				a, err = core.Analyze(e.out, core.WithConfig(opts.Analysis))
			case owned:
				a, err = core.ReanalyzeInPlace(a, e.out, core.WithConfig(opts.Analysis))
			default:
				a, err = core.Reanalyze(a, e.out, core.WithConfig(opts.Analysis))
			}
			if err != nil {
				return nil, nil, nil, err
			}
			owned = true
			rep.Reanalyses++
		}
		if changed == 0 {
			break
		}
		rep.Rounds++
	}
	out := a.Prog
	if err := out.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("opt: produced invalid program: %w", err)
	}
	rep.InstructionsAfter = out.NumInstructions()
	m.Counter("opt/rounds").Add(uint64(rep.Rounds))
	m.Counter("opt/reanalyses").Add(uint64(rep.Reanalyses))
	m.Counter("opt/instructions_removed").Add(uint64(rep.Removed()))
	return out, a, rep, nil
}

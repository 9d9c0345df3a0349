// Package check is the analysis's correctness harness: four
// independent oracles that cross-examine core.Analyze from different
// directions, none of which shares code with the solver it checks.
//
//   - The structural invariant checker (invariants.go) re-derives the
//     phase-1 and phase-2 fixed-point equations from the paper and
//     verifies the converged PSG satisfies them node by node, along
//     with the graph's well-formedness (CSR adjacency symmetry, edge
//     label consistency, summary/PSG agreement).
//
//   - The dynamic oracle (dynamic.go) executes the program on the
//     emulator and compares what each call actually did — registers
//     read before written, registers written, callee-saved values at
//     return — against the summary the analysis published for it. The
//     analysis claims MAY and MUST facts over all paths; an executed
//     path is one path, so every observation must fall inside them.
//
//   - The differential runner (differential.go) runs the analysis
//     across the full option matrix (open/closed world × branch nodes ×
//     parallelism 1/2/8), requires byte-identical summaries within each
//     world, and bounds the result against the context-insensitive
//     supergraph baseline, which by construction includes every path
//     the PSG analysis reasons about.
//
//   - The labeling oracle (labeling.go) re-derives every flow-summary
//     edge with the paper's literal Figure 6 procedure — one CFG
//     subgraph dataflow per edge — and requires core's sparse def-use
//     chain labeler to have produced exactly those edges, in order,
//     with exactly those labels.
//
// The oracles report Violations rather than failing a *testing.T, so
// the same harness backs the package's tests, the fuzz targets, the
// soak runs (make soak) and `spike check`.
package check

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/progen"
)

// Violation is one failed check. A sound analysis produces none.
type Violation struct {
	Oracle  string // "invariant", "dynamic", "differential" or "labeling"
	Rule    string // stable rule identifier, e.g. "dynamic-use-subset"
	Routine string // routine name, when the violation is per-routine
	Detail  string // human-readable specifics
}

func (v Violation) String() string {
	if v.Routine != "" {
		return fmt.Sprintf("[%s] %s: routine %s: %s", v.Oracle, v.Rule, v.Routine, v.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", v.Oracle, v.Rule, v.Detail)
}

// Options configures a Program run.
type Options struct {
	// MaxSteps is the emulator budget for the dynamic oracle; 0 selects
	// a default suited to generated test programs.
	MaxSteps int64

	// Parallelism lists the worker-pool sizes the differential runner
	// sweeps; nil selects {1, 2, 8}.
	Parallelism []int
}

func (o *Options) maxSteps() int64 {
	if o != nil && o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 2_000_000
}

func (o *Options) parallelism() []int {
	if o != nil && len(o.Parallelism) > 0 {
		return o.Parallelism
	}
	return []int{1, 2, 8}
}

// Program runs all four oracles over one program and returns every
// violation found. The program must pass prog.Validate; invalid
// programs are reported as a single "analyze" violation rather than an
// oracle result.
func Program(p *prog.Program, opts *Options) []Violation {
	var vs []Violation

	// The differential matrix includes the two world configurations the
	// other oracles want; run it first and reuse its anchor analyses.
	diff := differential(p, opts.parallelism())
	vs = append(vs, diff.violations...)
	if diff.closed == nil || diff.open == nil {
		return vs
	}

	for _, a := range []*core.Analysis{diff.closed, diff.open} {
		vs = append(vs, Invariants(a)...)
	}

	// The labeling oracle digs below the summaries the matrix compares:
	// every flow-summary edge and its three label sets, re-derived with
	// the literal Figure 6 procedure, branch nodes on and off.
	vs = append(vs, Labeling(p)...)

	// The dynamic oracle checks each world's summaries against the same
	// execution: open-world sets are the tighter claim, closed-world
	// sets must hold too.
	vs = append(vs, Dynamic(diff.open, opts.maxSteps())...)
	vs = append(vs, Dynamic(diff.closed, opts.maxSteps())...)
	return vs
}

// Report summarizes a multi-program run.
type Report struct {
	Programs   int
	Violations []Violation
}

// Failed reports whether any violation was found.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Generated runs the full harness over n generated programs (seeds
// seed0 … seed0+n−1, progen test profiles). If w is non-nil, progress
// and violations are logged to it as they appear.
func Generated(n int, seed0 uint64, opts *Options, w io.Writer) *Report {
	rep := &Report{}
	for i := 0; i < n; i++ {
		seed := seed0 + uint64(i)
		p := progen.Generate(progen.TestProfile(12+int(seed%18)), progen.DefaultOptions(seed))
		vs := Program(p, opts)
		rep.Programs++
		if len(vs) > 0 && w != nil {
			fmt.Fprintf(w, "seed %d: %d violation(s)\n", seed, len(vs))
			for _, v := range vs {
				fmt.Fprintf(w, "  %s\n", v)
			}
		}
		rep.Violations = append(rep.Violations, vs...)
		if w != nil && (i+1)%500 == 0 {
			fmt.Fprintf(w, "checked %d/%d programs, %d violation(s)\n", i+1, n, len(rep.Violations))
		}
	}
	return rep
}

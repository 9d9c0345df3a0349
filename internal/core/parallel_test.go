package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/progen"
)

// TestParallelSerialEquivalence is the determinism guarantee of the
// parallel pipeline: for generated programs, analysis with a single
// worker and with two or eight workers must produce deeply-equal
// routine summaries, identical structural and schedule counts, and
// byte-identical DOT renderings — the per-routine stages shard by
// routine and merge in routine order, and the SCC-scheduled phases
// converge to the unique fixed point with schedule-determined
// iteration counts, so worker count must be unobservable in the
// result.
func TestParallelSerialEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p := progen.Generate(progen.TestProfile(40), progen.DefaultOptions(seed))
		serial, err := Analyze(p.Clone(), WithParallelism(1))
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, workers := range []int{2, 8} {
			parallel, err := Analyze(p.Clone(), WithParallelism(workers))
			if err != nil {
				t.Fatalf("seed %d parallelism %d: %v", seed, workers, err)
			}

			if !reflect.DeepEqual(serial.Summaries, parallel.Summaries) {
				t.Errorf("seed %d: summaries differ between parallelism 1 and %d", seed, workers)
			}
			if serial.Stats.PSGNodes != parallel.Stats.PSGNodes ||
				serial.Stats.PSGEdges != parallel.Stats.PSGEdges {
				t.Errorf("seed %d: structural counts differ: serial %d nodes/%d edges, parallelism %d %d nodes/%d edges",
					seed, serial.Stats.PSGNodes, serial.Stats.PSGEdges,
					workers, parallel.Stats.PSGNodes, parallel.Stats.PSGEdges)
			}
			if serial.Stats.BasicBlocks != parallel.Stats.BasicBlocks ||
				serial.Stats.CFGArcs != parallel.Stats.CFGArcs {
				t.Errorf("seed %d: CFG counts differ", seed)
			}
			if err := sameSchedule(&serial.Stats, &parallel.Stats); err != nil {
				t.Errorf("seed %d parallelism %d: %v", seed, workers, err)
			}
			for ri := range p.Routines {
				var a, b bytes.Buffer
				serial.PSG.WriteDot(&a, ri)
				parallel.PSG.WriteDot(&b, ri)
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("seed %d routine %d: DOT output differs between parallelism 1 and %d",
						seed, ri, workers)
				}
			}
		}
	}
}

// sameSchedule compares the parallelism-invariant schedule counts of
// two analysis runs.
func sameSchedule(a, b *Stats) error {
	if a.SCCComponents != b.SCCComponents ||
		a.Phase1Waves != b.Phase1Waves || a.Phase2Waves != b.Phase2Waves ||
		a.Phase1Iterations != b.Phase1Iterations || a.Phase2Iterations != b.Phase2Iterations {
		return fmt.Errorf("schedule stats differ: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d (components/waves1/waves2/iters1/iters2)",
			a.SCCComponents, a.Phase1Waves, a.Phase2Waves, a.Phase1Iterations, a.Phase2Iterations,
			b.SCCComponents, b.Phase1Waves, b.Phase2Waves, b.Phase1Iterations, b.Phase2Iterations)
	}
	return nil
}

// TestPhaseSchedulingDeterminism pins the phase-scheduling guarantee
// on both indirect-call configurations: under the closed world (the
// default, where indirect calls pin a shared component) and the open
// world (§3.5 constant labels, no pinning), analysis at parallelism 1
// and 8 must agree on every summary set and every schedule count.
func TestPhaseSchedulingDeterminism(t *testing.T) {
	worlds := []struct {
		name string
		opts []Option
	}{
		{"closed-world", nil},
		{"open-world", []Option{WithOpenWorld()}},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				// TestProfile generates indirect calls and
				// address-taken routines, so the closed-world runs
				// exercise the pinned component.
				p := progen.Generate(progen.TestProfile(60), progen.DefaultOptions(seed))
				serial, err := Analyze(p.Clone(), append([]Option{WithParallelism(1)}, w.opts...)...)
				if err != nil {
					t.Fatalf("seed %d serial: %v", seed, err)
				}
				parallel, err := Analyze(p.Clone(), append([]Option{WithParallelism(8)}, w.opts...)...)
				if err != nil {
					t.Fatalf("seed %d parallel: %v", seed, err)
				}
				if !reflect.DeepEqual(serial.Summaries, parallel.Summaries) {
					t.Errorf("seed %d: summaries differ between parallelism 1 and 8", seed)
				}
				if err := sameSchedule(&serial.Stats, &parallel.Stats); err != nil {
					t.Errorf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestParallelEquivalenceAcrossConfigs repeats the worker-count
// equivalence check under the other configuration axes: open world and
// branch nodes off.
func TestParallelEquivalenceAcrossConfigs(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"open-world", []Option{WithOpenWorld()}},
		{"no-branch-nodes", []Option{WithBranchNodes(false)}},
	}
	p := progen.Generate(progen.TestProfile(30), progen.DefaultOptions(7))
	for _, v := range variants {
		serial, err := Analyze(p.Clone(), append([]Option{WithParallelism(1)}, v.opts...)...)
		if err != nil {
			t.Fatalf("%s serial: %v", v.name, err)
		}
		parallel, err := Analyze(p.Clone(), append([]Option{WithParallelism(8)}, v.opts...)...)
		if err != nil {
			t.Fatalf("%s parallel: %v", v.name, err)
		}
		if !reflect.DeepEqual(serial.Summaries, parallel.Summaries) {
			t.Errorf("%s: summaries differ between parallelism 1 and 8", v.name)
		}
		if serial.Stats.PSGNodes != parallel.Stats.PSGNodes ||
			serial.Stats.PSGEdges != parallel.Stats.PSGEdges {
			t.Errorf("%s: structural counts differ", v.name)
		}
	}
}

// TestOptionsComposition pins the option semantics: application order,
// WithConfig as a wholesale replacement, and the GOMAXPROCS default.
func TestOptionsComposition(t *testing.T) {
	if got := NewConfig(); got != DefaultConfig() {
		t.Errorf("NewConfig() = %+v, want DefaultConfig()", got)
	}
	if got := NewConfig(WithOpenWorld()); got != PaperConfig() {
		t.Errorf("NewConfig(WithOpenWorld()) = %+v, want PaperConfig()", got)
	}
	got := NewConfig(WithConfig(PaperConfig()), WithParallelism(3), WithBranchNodes(false))
	want := PaperConfig()
	want.Parallelism = 3
	want.BranchNodes = false
	if got != want {
		t.Errorf("composed config = %+v, want %+v", got, want)
	}
	// Later options override earlier ones.
	if c := NewConfig(WithOpenWorld(), WithClosedWorld()); !c.LinkIndirectCalls {
		t.Error("WithClosedWorld must override WithOpenWorld")
	}
	if w := NewConfig().Workers(); w < 1 {
		t.Errorf("default Workers() = %d, want >= 1", w)
	}
	if w := NewConfig(WithParallelism(5)).Workers(); w != 5 {
		t.Errorf("Workers() = %d, want 5", w)
	}
}

package check

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/prog"
)

// soakN returns how many generated programs the clean-run test sweeps:
// the CHECK_SOAK_N environment variable (the soak targets set it),
// else a small default suited to the ordinary test run.
func soakN(t *testing.T) int {
	if s := os.Getenv("CHECK_SOAK_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("CHECK_SOAK_N=%q is not a positive integer", s)
		}
		return n
	}
	if testing.Short() {
		return 60
	}
	return 300
}

// TestGeneratedProgramsClean is the harness's main claim: across
// generated programs, all four oracles — differential matrix,
// structural invariants, Figure 6 labeling, dynamic execution — find
// nothing. `make soak`
// runs it over ≥10k programs via CHECK_SOAK_N.
func TestGeneratedProgramsClean(t *testing.T) {
	n := soakN(t)
	rep := Generated(n, 0x5eed, nil, testWriter{t})
	if rep.Failed() {
		t.Fatalf("%d violation(s) across %d programs", len(rep.Violations), rep.Programs)
	}
}

// TestNeverReturningCallClean pins the MUST-DEF clamp: a call with no
// path to a ret-exit (unbounded recursion ahead of the halt) used to
// leave the phase-1 intersection at lattice top — MUST-DEF of all 64
// registers against a MAY-DEF of {ra} — violating MUST ⊆ MAY and
// leaking hardwired registers into call-defined.
func TestNeverReturningCallClean(t *testing.T) {
	p, err := prog.Assemble(".start main\n.routine main\n  jsr main\n  halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if vs := Program(p, fuzzOptions); len(vs) > 0 {
		t.Fatalf("never-returning call flagged: %v", vs)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// TestViolationString pins the two report formats the soak log and
// `spike check` print.
func TestViolationString(t *testing.T) {
	v := Violation{Oracle: "dynamic", Rule: "dynamic-use-subset", Routine: "f", Detail: "x"}
	if got := v.String(); got != "[dynamic] dynamic-use-subset: routine f: x" {
		t.Errorf("String() = %q", got)
	}
	v.Routine = ""
	if got := v.String(); got != "[dynamic] dynamic-use-subset: x" {
		t.Errorf("String() = %q", got)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// exactRecord holds the counts that must repeat exactly across runs at
// one seed: PSG shape and phase iterations, the optimizer's counters,
// emulator steps (and so both reduction percentages), and each patch's
// dirty routines and resolved components.
type exactRecord struct {
	Table2 map[string]*t2exact `json:"table2"`
	// Edits maps each serve-edit chain (one program) to its [dirty
	// routines, resolved components], one pair per patch.
	Edits map[string][][2]int `json:"edits"`
}

type t2exact struct {
	PSGNodes            int    `json:"psg_nodes"`
	PSGEdges            int    `json:"psg_edges"`
	Phase1Iterations    int    `json:"phase1_iterations"`
	Phase2Iterations    int    `json:"phase2_iterations"`
	DeadInstructions    int    `json:"dead_instructions"`
	SpillsRemoved       int    `json:"spills_removed"`
	SaveRestoreRewrites int    `json:"saverestore_rewrites"`
	Rounds              int    `json:"rounds"`
	Reanalyses          int    `json:"reanalyses"`
	InstructionsBefore  int    `json:"instructions_before"`
	InstructionsAfter   int    `json:"instructions_after"`
	StepsBefore         int64  `json:"steps_before"`
	StepsAfter          int64  `json:"steps_after"`
	OptimizedSHA        string `json:"optimized_sha256"`
}

func newExactRecord() *exactRecord {
	return &exactRecord{Table2: map[string]*t2exact{}, Edits: map[string][][2]int{}}
}

func (e *exactRecord) profile(name string) *t2exact {
	if e.Table2[name] == nil {
		e.Table2[name] = &t2exact{}
	}
	return e.Table2[name]
}

// compare checks this run's counts against the record an earlier run
// of the same code, workload and seed left in dir, counting any drift
// as a failure, then stores the union of both.
func (e *exactRecord) compare(r *run, dir, digest string) error {
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", digest, r.cfg.workload, r.cfg.seed))
	var prev exactRecord
	switch b, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("exact-count record %s: %w", path, err)
		}
		drift := e.drift(&prev)
		for _, d := range drift {
			r.fail("exact count drifted from an earlier run at seed %d: %s", r.cfg.seed, d)
		}
		r.record["exact_compared_with"] = path
		e.merge(&prev)
	case !os.IsNotExist(err):
		return err
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + fmt.Sprintf(".%d.tmp", os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (e *exactRecord) drift(prev *exactRecord) []string {
	var out []string
	names := make([]string, 0, len(e.Table2))
	for n := range e.Table2 {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if p, ok := prev.Table2[n]; ok && *p != *e.Table2[n] {
			out = append(out, fmt.Sprintf("table2 %s: now %+v, before %+v", n, *e.Table2[n], *p))
		}
	}
	for c, seq := range e.Edits {
		old := prev.Edits[c]
		for i := 0; i < len(seq) && i < len(old); i++ {
			if seq[i] != old[i] {
				out = append(out, fmt.Sprintf("serve-edit chain %s patch %d: now %v, before %v", c, i, seq[i], old[i]))
				break
			}
		}
	}
	return out
}

// merge keeps the earlier run's profiles this run did not measure and
// the longer of each edit chain.
func (e *exactRecord) merge(prev *exactRecord) {
	for n, p := range prev.Table2 {
		if _, ok := e.Table2[n]; !ok {
			e.Table2[n] = p
		}
	}
	for c, seq := range prev.Edits {
		if len(seq) > len(e.Edits[c]) {
			e.Edits[c] = seq
		}
	}
}

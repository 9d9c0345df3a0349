package opt

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/regset"
)

// isPure reports whether an instruction's only effect is writing its
// destination register, making it deletable when that register is dead.
func isPure(in *isa.Instr) bool {
	switch in.Op {
	case isa.OpLda, isa.OpMov,
		isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpSll, isa.OpSrl, isa.OpCmpeq, isa.OpCmplt, isa.OpCmple,
		isa.OpNot, isa.OpNeg,
		isa.OpAddf, isa.OpSubf, isa.OpMulf, isa.OpDivf,
		isa.OpCvtif, isa.OpCvtfi,
		isa.OpLd:
		return true
	}
	return false
}

// eliminateDeadCode replaces dead pure instructions with nops in the
// edit set, using the interprocedural liveness of the analysis (Figure
// 1(a)/(b)) — or, with conservative set, only the intraprocedural
// liveness a traditional compiler could compute. Routines are
// independent (each consults only its own liveness solution), so the
// work fans out over the call graph's wave schedule; per-routine counts
// are summed in routine order, making the result identical at any
// worker count. The caller compacts the nops away and re-analyzes.
func eliminateDeadCode(a *core.Analysis, e *editSet, conservative bool, workers int) int {
	cg := a.CallGraph()
	counts := make([]int, len(a.Prog.Routines))
	forEachComponentWave(cg, workers, func(c int) {
		for _, ri := range cg.Members(c) {
			counts[ri] = deadCodeRoutine(a, e, ri, conservative)
		}
	})
	deleted := 0
	for _, n := range counts {
		deleted += n
	}
	return deleted
}

// deadCodeRoutine nops out routine ri's dead pure instructions, reading
// the analyzed code and one liveness sweep over it.
func deadCodeRoutine(a *core.Analysis, e *editSet, ri int, conservative bool) int {
	r := a.Prog.Routines[ri]
	var lv *dataflow.Liveness
	if conservative {
		lv = ConservativeLiveness(a, ri)
	} else {
		lv = Liveness(a, ri)
	}
	deleted := 0
	lv.EachLiveAfter(func(i int, after regset.Set) {
		in := &r.Code[i]
		if !isPure(in) {
			return
		}
		if defs := in.Defs(); defs.IsEmpty() || defs.Intersects(after) {
			return
		}
		e.routine(ri).Code[i] = isa.Nop()
		deleted++
	})
	return deleted
}

// Compact removes every nop from the program, remapping branch targets,
// jump tables, routine entries and code-address immediates (function
// pointers and computed-goto targets carry the prog.AddrTag bit).
func Compact(p *prog.Program) int {
	removed := 0
	// newIndex[ri][i] is instruction i's new index in routine ri; a
	// deleted instruction maps to the next surviving one.
	newIndex := make([][]int, len(p.Routines))
	for ri, r := range p.Routines {
		idx := make([]int, len(r.Code)+1)
		n := 0
		for i := range r.Code {
			idx[i] = n
			if r.Code[i].Op != isa.OpNop {
				n++
			}
		}
		idx[len(r.Code)] = n
		// Deleted instructions map forward: recompute as "index of
		// next survivor", which idx already encodes because a nop does
		// not advance n.
		newIndex[ri] = idx
		removed += len(r.Code) - n
	}
	if removed == 0 {
		return 0
	}
	for ri, r := range p.Routines {
		idx := newIndex[ri]
		var out []isa.Instr
		for i := range r.Code {
			if r.Code[i].Op == isa.OpNop {
				continue
			}
			in := r.Code[i]
			if in.Op.IsBranch() && in.Op != isa.OpJmp {
				in.Target = idx[in.Target]
			}
			if tri, tinstr, ok := prog.DecodeAddr(in.Imm); ok && in.Op == isa.OpLda &&
				tri < len(newIndex) && tinstr < len(newIndex[tri]) {
				in.Imm = prog.CodeAddr(tri, newIndex[tri][tinstr])
			}
			out = append(out, in)
		}
		r.Code = out
		for ti := range r.Tables {
			for k := range r.Tables[ti] {
				r.Tables[ti][k] = idx[r.Tables[ti][k]]
			}
		}
		for e := range r.Entries {
			r.Entries[e] = idx[r.Entries[e]]
		}
	}
	return removed
}

package core

import (
	"time"

	"repro/internal/callgraph"
	"repro/internal/callstd"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/regset"
)

// frameSlabs is the scratch memory of one computeSavedRestored run:
// the per-instruction delta/flag/work slabs, their sizing prefix sums,
// the scanned routines' frame facts and their call-delta/clobber
// windows. Everything here dies when computeSavedRestored returns, so
// the slabs are pooled and reused across analyses — they are the
// largest transient allocation of a PSG build.
type frameSlabs struct {
	off    []int
	deltas []int64
	flags  []uint8
	work   []int32
	facts  []FrameFact

	// perR holds each scanned routine's call-delta/clobber output
	// buffers. They grow by append on first contact and keep their
	// capacity across runs (the pool pairs slab index i with the i-th
	// scanned routine every time), so the steady state allocates nothing
	// and no sizing pre-scan of the instructions is needed.
	perR []frameBufs
}

type frameBufs struct {
	callDeltas []int64
	clobbers   []int64
}

var framePool = obs.NewPool(func() any { return new(frameSlabs) })

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growSlabs resizes the slabs for n scanned routines with code
// instructions in total. Only flags needs clearing: deltas entries are
// meaningful only under flagSeen, work starts as an empty window, and
// facts entries are fully overwritten.
func (fs *frameSlabs) growSlabs(n, code int) {
	if cap(fs.deltas) < code {
		fs.deltas = make([]int64, code)
		fs.flags = make([]uint8, code)
		fs.work = make([]int32, code)
	}
	fs.deltas = fs.deltas[:code]
	fs.flags = fs.flags[:code]
	fs.work = fs.work[:code]
	clear(fs.flags)
	if cap(fs.facts) < n {
		fs.facts = make([]FrameFact, n)
		fs.perR = make([]frameBufs, n)
	}
	fs.facts = fs.facts[:n]
	fs.perR = fs.perR[:n]
}

// computeSavedRestored detects, for every routine, the callee-saved
// registers the routine saves in its prologue(s) and restores in its
// epilogue(s) (§3.4). Definitions and uses of such registers must not
// propagate to callers: after phase 1 computes an entry node's sets, the
// routine's saved-and-restored registers are removed from them.
//
// Only the dirty routines' bodies are read. A parallel pass derives each
// one's frame facts: the stack-pointer delta of every reachable
// instruction and the frame discipline that makes save slots trustworthy
// (frameScan), then the save slots no body store or deeper-stacked call
// overwrites (savedRestored). Every other routine keeps prev's facts,
// which depend only on its unchanged body; prev is nil when every
// routine is dirty. A serial fixed point then propagates discipline
// through the call graph (solvePreserving): a routine's frame is only
// intact if every routine it calls leaves sp where it found it.
//
// When the call graph is a structural reuse of prev's and every dirty
// routine scans to its previous facts, the fixed point's inputs are
// untouched, so prev's frames and SavedRestored slices are shared
// outright (both read-only), skipping the O(routines) solve. The
// returned flag reports that sharing, which also tells the caller no
// routine's set moved.
func (g *PSG) computeSavedRestored(prev *PSG, cg *callgraph.Graph, dirty []int, workers int, sp obs.Span) (time.Duration, bool) {
	fs := framePool.Get().(*frameSlabs)
	defer framePool.Put(fs)

	// One slab per per-instruction scratch array, sliced per scanned
	// routine: the workers write disjoint ranges, and the hot path stays
	// within its allocation budget (see core's perf tests).
	off := growInts(fs.off, len(dirty)+1)
	fs.off = off
	off[0] = 0
	for i, ri := range dirty {
		off[i+1] = off[i] + len(g.Prog.Routines[ri].Code)
	}
	fs.growSlabs(len(dirty), off[len(dirty)])
	facts := fs.facts

	cpu := par.ForEachSpan(sp, "saved-restored", len(dirty), workers, func(i int) {
		r := g.Prog.Routines[dirty[i]]
		lo, hi := off[i], off[i+1]
		bufs := &fs.perR[i]
		scratch := frameScratch{
			deltas:       fs.deltas[lo:hi],
			flags:        fs.flags[lo:hi],
			work:         fs.work[lo:hi:hi],
			callDeltas:   bufs.callDeltas[:0],
			bodyClobbers: bufs.clobbers[:0],
		}
		var fi frameInfo
		frameScan(&fi, r, &scratch)
		// LocalSaved is computed for every clean-frame routine, not only
		// the preserving ones: it depends solely on the routine's own
		// body, so a later re-analysis can re-run the call-graph fixed
		// point over cached facts without rescanning any body.
		f := FrameFact{Clean: fi.clean, HasIndirect: fi.hasIndirect}
		if fi.clean {
			f.LocalSaved = savedRestored(r, &fi)
		}
		facts[i] = f
		// Keep whatever capacity the appends grew for the next run.
		*bufs = frameBufs{callDeltas: fi.callDeltas, clobbers: fi.bodyClobbers}
	})

	start := time.Now()
	var prevFrames []FrameFact
	if prev != nil {
		prevFrames = prev.frames
	}
	n := len(g.Prog.Routines)
	if cg.StructureReused() && len(prevFrames) == n {
		same := true
		for i, ri := range dirty {
			same = same && facts[i] == prevFrames[ri]
		}
		if same {
			g.frames, g.SavedRestored = prevFrames, prev.SavedRestored
			return cpu + time.Since(start), true
		}
	}
	g.frames = make([]FrameFact, n)
	copy(g.frames, prevFrames) // every routine past prev's or not clean is dirty
	for i, ri := range dirty {
		g.frames[ri] = facts[i]
	}
	g.SavedRestored = make([]regset.Set, n)
	for ri, ok := range solvePreserving(g.frames, cg) {
		if ok {
			g.SavedRestored[ri] = g.frames[ri].LocalSaved
		}
	}
	return cpu + time.Since(start), false
}

// FrameFact caches what the §3.4 frame passes learned about one
// routine's body: whether it obeys the frame discipline frameScan
// demands, whether it contains an indirect call, and the
// saved/restored set its prologues and epilogues establish in
// isolation (meaningful only when Clean). Every field depends only on
// the routine's own body, so unedited routines keep their facts across
// an incremental re-analysis; only the serial call-graph fixed point
// (solvePreserving) is re-run.
type FrameFact struct {
	Clean       bool
	HasIndirect bool
	LocalSaved  regset.Set
}

// solvePreserving runs the greatest fixed point deciding which
// routines' save slots survive their calls: a routine preserves the
// frame only if its own frame is clean and every callee in the call
// graph — including, for routines with indirect calls, every
// address-taken routine — preserves it transitively. Mutual recursion
// between disciplined routines stays disciplined.
func solvePreserving(facts []FrameFact, cg *callgraph.Graph) []bool {
	preserving := make([]bool, len(facts))
	for ri := range facts {
		preserving[ri] = facts[ri].Clean
	}
	for changed := true; changed; {
		changed = false
		for ri := range facts {
			if !preserving[ri] {
				continue
			}
			ok := true
			for _, callee := range cg.Callees(ri) {
				if !preserving[callee] {
					ok = false
					break
				}
			}
			if ok && facts[ri].HasIndirect {
				for _, callee := range cg.AddressTaken() {
					if !preserving[callee] {
						ok = false
						break
					}
				}
			}
			if !ok {
				preserving[ri] = false
				changed = true
			}
		}
	}
	return preserving
}

// frameInfo is what frameScan learns about one routine's stack frame.
type frameInfo struct {
	// clean reports the routine obeys the frame discipline under which
	// prologue/epilogue slot matching is sound: sp changes only by
	// lda sp, imm(sp); sp's value never escapes into another register
	// or memory; every sp-relative store stays strictly below the entry
	// sp (inside the routine's own frame); every ret is reached with sp
	// back at its entry value; and control never leaves through an
	// unknown-target jump.
	clean bool

	// hasIndirect marks the presence of indirect calls, which
	// solvePreserving expands to the address-taken set (every callee the
	// program itself can name; the calling standard covers callees
	// outside it).
	hasIndirect bool

	// bodyClobbers are the entry-sp-relative slots written by reachable
	// sp-relative stores outside any prologue region: whatever save
	// lived in such a slot is gone by the time an epilogue reloads it.
	bodyClobbers []int64

	// callDeltas records the sp delta at each call site. A callee only
	// writes below its own entry sp, so a save slot is safe from the
	// call iff it sits at or above the call's delta.
	callDeltas []int64

	// flags marks instructions that belong to a prologue region
	// (their stores are save-slot writes, not clobbers) and
	// instructions that are branch targets (an epilogue scan cannot
	// trust loads upstream of a join).
	flags []uint8
}

const (
	flagPrologue uint8 = 1 << iota
	flagTarget

	// flagSeen marks instructions the forward scan has reached; deltas
	// entries are meaningful only under it, which saves re-initializing
	// the (8× wider) delta slab between runs.
	flagSeen
)

// frameScratch is caller-provided storage for frameScan: deltas, flags
// and work are len(r.Code) (flags zeroed); the output slices append into
// per-routine buffers that retain capacity across runs (frameSlabs.perR).
// An instruction enters the worklist at most once (flagSeen is set
// exactly once), so work never outgrows its capacity.
type frameScratch struct {
	deltas []int64
	flags  []uint8
	work   []int32

	callDeltas   []int64
	bodyClobbers []int64
}

// frameScan analyses one routine's stack discipline: a forward pass
// assigns every reachable instruction its sp delta relative to entry
// (conflicting deltas at a join fail the scan — slot arithmetic would
// be path-dependent) while checking the conditions listed on
// frameInfo.clean. Calls are assumed sp-preserving here; the caller's
// fixed point withdraws the assumption wherever the callee's own scan
// disproves it, and the §3.5 calling standard covers callees outside
// the program.
//
// The pass drains straight-line runs inline — only branch targets go
// through the worklist — and gates the sp-discipline checks on a cheap
// operand screen: an instruction whose three operand fields avoid sp
// and whose opcode carries no register sets cannot read or write sp,
// so the common instruction costs a handful of byte compares.
func frameScan(fi *frameInfo, r *prog.Routine, scratch *frameScratch) {
	code := r.Code
	deltas, work, flags := scratch.deltas, scratch.work, scratch.flags
	*fi = frameInfo{
		clean:        true,
		flags:        scratch.flags,
		callDeltas:   scratch.callDeltas,
		bodyClobbers: scratch.bodyClobbers,
	}

	// Prologue regions: the save-run at each entrance (st/lda-sp only),
	// exactly what prologueSaves walks.
	for _, e := range r.Entries {
		for i := e; i < len(code); i++ {
			if !isPrologueInstr(&code[i]) {
				break
			}
			flags[i] |= flagPrologue
		}
	}

	work = work[:0]
	for _, e := range r.Entries {
		if e < 0 || e >= len(code) {
			fi.clean = false
			return
		}
		// Entrances behave like branch targets for the epilogue scan:
		// executions entering here skip everything upstream.
		if flags[e]&flagSeen == 0 {
			flags[e] |= flagTarget | flagSeen
			deltas[e] = 0
			work = append(work, int32(e))
		} else {
			flags[e] |= flagTarget
			if deltas[e] != 0 {
				fi.clean = false
			}
		}
	}

	target := func(i int, d int64) {
		if i < 0 || i >= len(code) {
			fi.clean = false
			return
		}
		if flags[i]&flagSeen == 0 {
			flags[i] |= flagTarget | flagSeen
			deltas[i] = d
			work = append(work, int32(i))
		} else {
			flags[i] |= flagTarget
			if deltas[i] != d {
				fi.clean = false
			}
		}
	}

	for len(work) > 0 && fi.clean {
		i := int(work[len(work)-1])
		work = work[:len(work)-1]
		d := deltas[i]
	run:
		in := &code[i]

		spAdjust := false
		if in.Dest == regset.SP || in.Src1 == regset.SP || in.Src2 == regset.SP ||
			in.Op.Format() == isa.FmtSets {
			spAdjust = in.Op == isa.OpLda && in.Dest == regset.SP && in.Src1 == regset.SP
			if in.DefsReg(regset.SP) && !spAdjust {
				fi.clean = false // sp computed from something other than sp
				return
			}
			if in.UsesReg(regset.SP) {
				// sp may be read only as a load/store base or to adjust
				// itself; anything else lets its value escape, after which
				// stores through other registers could alias the frame.
				switch {
				case spAdjust:
				case in.Op == isa.OpLd && in.Src1 == regset.SP:
				case in.Op == isa.OpSt && in.Src1 == regset.SP && in.Src2 != regset.SP:
				default:
					fi.clean = false
					return
				}
			}
			if in.Op == isa.OpSt && in.Src1 == regset.SP {
				slot := d + in.Imm
				if slot >= 0 {
					fi.clean = false // writes into the caller's frame
					return
				}
				if flags[i]&flagPrologue == 0 {
					fi.bodyClobbers = append(fi.bodyClobbers, slot)
				}
			}
		}

		nd := d
		if spAdjust {
			nd = d + in.Imm
		}
		next := -1
		// Single-load screen: the common instruction ends no block and
		// just falls through, skipping the terminator switch entirely.
		if !in.IsBlockEnd() {
			next = i + 1
		} else {
			switch in.Op {
			case isa.OpBr:
				target(in.Target, nd)
			case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
				target(in.Target, nd)
				next = i + 1
			case isa.OpJmp:
				if in.Table == isa.UnknownTable || in.Table < 0 || in.Table >= len(r.Tables) {
					fi.clean = false // may leave the routine with sp anywhere
					return
				}
				for _, t := range r.Tables[in.Table] {
					target(t, nd)
				}
			case isa.OpRet:
				if d != 0 {
					fi.clean = false // epilogue slot math would be shifted
					return
				}
			case isa.OpHalt:
				// Ends the program; no frame to restore.
			case isa.OpJsr:
				fi.callDeltas = append(fi.callDeltas, d)
				next = i + 1
			case isa.OpJsrInd:
				fi.hasIndirect = true
				fi.callDeltas = append(fi.callDeltas, d)
				next = i + 1
			default:
				next = i + 1
			}
		}
		if next >= 0 && fi.clean {
			// Continue the straight-line run without worklist traffic.
			if next >= len(code) {
				fi.clean = false
				return
			}
			if flags[next]&flagSeen == 0 {
				flags[next] |= flagSeen
				deltas[next] = nd
				i, d = next, nd
				goto run
			}
			if deltas[next] != nd {
				fi.clean = false
			}
		}
	}
}

func isPrologueInstr(in *isa.Instr) bool {
	return (in.Op == isa.OpSt && in.Src1 == regset.SP) ||
		(in.Op == isa.OpLda && in.Dest == regset.SP && in.Src1 == regset.SP)
}

// savedRestored returns the set of callee-saved registers the routine
// provably saves at every entrance and restores before every exit. It
// runs only on routines frameScan (plus the call-graph fixed point)
// proved frame-disciplined.
//
// A prologue is a run of stack-pointer-relative stores (and stack
// adjustments) at an entrance; an epilogue is a run of
// stack-pointer-relative loads (and stack adjustments) immediately
// before a ret. Offsets on both ends are normalized to the entry sp
// (rets see the entry sp again; frameScan guarantees it), so a register
// only qualifies when every ret reloads it from a slot that still holds
// the entry value:
//
//   - a later prologue store to the same slot (e.g. st s0,0(sp) followed
//     by st ra,0(sp)) destroys the earlier register's saved copy there;
//   - so does any reachable body store to the slot, and any call made
//     with sp at or below it (the callee owns everything under its
//     entry sp);
//   - a register stored to several slots has a valid copy in each, and a
//     restore from any of them qualifies;
//   - a restore from a slot the register was never saved to does not,
//     and neither does a load upstream of a branch target (paths
//     joining there skip it).
func savedRestored(r *prog.Routine, fi *frameInfo) regset.Set {
	var saves saveSlots
	for ei, e := range r.Entries {
		if ei == 0 {
			prologueSaves(&saves, r.Code, e)
		} else {
			var s saveSlots
			prologueSaves(&s, r.Code, e)
			saves.intersect(&s)
		}
	}
	for _, slot := range fi.bodyClobbers {
		saves.clobber(slot, noOwner)
	}
	// A slot survives every call iff it sits at or above each call's sp
	// delta, i.e. at or above the maximum — one clobberBelow suffices.
	if len(fi.callDeltas) > 0 {
		d := fi.callDeltas[0]
		for _, x := range fi.callDeltas[1:] {
			if x > d {
				d = x
			}
		}
		saves.clobberBelow(d)
	}
	restored := regset.All
	anyRet := false
	for i := range r.Code {
		if r.Code[i].Op == isa.OpRet {
			anyRet = true
			restored = restored.Intersect(epilogueRestores(r.Code, i, &saves, fi.flags))
		}
	}
	if !anyRet {
		return regset.Empty
	}
	return saves.valid.Intersect(restored).Intersect(callstd.CalleeSaved)
}

// saveSlots records, per register, the entry-sp-relative slots that hold
// the register's entry value at the end of a prologue.
type saveSlots struct {
	valid regset.Set // registers with at least one intact save slot
	slots [regset.NumRegs][]int64
}

// noOwner makes clobber invalidate a slot for every register.
const noOwner = regset.Reg(regset.NumRegs)

func (s *saveSlots) add(r regset.Reg, slot int64) {
	for _, existing := range s.slots[r] {
		if existing == slot {
			return
		}
	}
	s.slots[r] = append(s.slots[r], slot)
	s.valid = s.valid.Add(r)
}

// clobber removes slot from every register other than owner: a store to
// the slot destroyed whatever save lived there.
func (s *saveSlots) clobber(slot int64, owner regset.Reg) {
	s.valid.ForEach(func(r regset.Reg) {
		if r == owner {
			return
		}
		kept := s.slots[r][:0]
		for _, sl := range s.slots[r] {
			if sl != slot {
				kept = append(kept, sl)
			}
		}
		s.slots[r] = kept
		if len(kept) == 0 {
			s.valid = s.valid.Remove(r)
		}
	})
}

// clobberBelow removes every slot strictly below d: a call made with sp
// delta d hands the callee everything under that address.
func (s *saveSlots) clobberBelow(d int64) {
	s.valid.ForEach(func(r regset.Reg) {
		kept := s.slots[r][:0]
		for _, sl := range s.slots[r] {
			if sl >= d {
				kept = append(kept, sl)
			}
		}
		s.slots[r] = kept
		if len(kept) == 0 {
			s.valid = s.valid.Remove(r)
		}
	})
}

func (s *saveSlots) has(r regset.Reg, slot int64) bool {
	if !s.valid.Contains(r) {
		return false
	}
	for _, sl := range s.slots[r] {
		if sl == slot {
			return true
		}
	}
	return false
}

// intersect keeps, per register, only the slots valid in both maps: a
// register restored from a slot must hold its entry value there on the
// path from every entrance.
func (s *saveSlots) intersect(t *saveSlots) {
	s.valid = s.valid.Intersect(t.valid)
	merged := s.valid
	merged.ForEach(func(r regset.Reg) {
		kept := s.slots[r][:0]
		for _, sl := range s.slots[r] {
			if t.has(r, sl) {
				kept = append(kept, sl)
			}
		}
		s.slots[r] = kept
		if len(kept) == 0 {
			s.valid = s.valid.Remove(r)
		}
	})
}

// prologueSaves scans forward from entry index e over the prologue
// pattern (sp-relative stores and sp adjustments), recording into s —
// which must start empty — which slots hold which register's entry
// value when the run ends. Offsets are normalized to the sp at entry.
// Register values are unchanged inside the region (stores write memory;
// the only register written is sp itself), so every store captures its
// register's entry value.
func prologueSaves(s *saveSlots, code []isa.Instr, e int) {
	var delta int64 // sp − entry sp at the current instruction
	for i := e; i < len(code); i++ {
		in := &code[i]
		switch {
		case in.Op == isa.OpSt && in.Src1 == regset.SP:
			slot := delta + in.Imm
			s.clobber(slot, in.Src2)
			s.add(in.Src2, slot)
		case in.Op == isa.OpLda && in.Dest == regset.SP && in.Src1 == regset.SP:
			delta += in.Imm
		default:
			return
		}
	}
}

// epilogueRestores scans backward from the ret at index x over the
// epilogue pattern (sp-relative loads and sp adjustments), returning
// the registers whose value at the ret was reloaded from one of their
// own save slots. Offsets are normalized to the sp at the ret, which
// frameScan proved equals the entry sp. The load nearest the ret is the
// one that determines a register's final value, so a later reload from
// a wrong slot disqualifies the register even if an earlier load used
// the right one; and the scan stops at any branch target, because paths
// joining the epilogue there skip the loads upstream of it.
func epilogueRestores(code []isa.Instr, x int, saves *saveSlots, flags []uint8) regset.Set {
	var restored, seen regset.Set
	var adjust int64 // sp at instruction − sp at ret
	for i := x - 1; i >= 0; i-- {
		in := &code[i]
		switch {
		case in.Op == isa.OpLd && in.Src1 == regset.SP:
			if !seen.Contains(in.Dest) {
				seen = seen.Add(in.Dest)
				if saves.has(in.Dest, adjust+in.Imm) {
					restored = restored.Add(in.Dest)
				}
			}
		case in.Op == isa.OpLda && in.Dest == regset.SP && in.Src1 == regset.SP:
			adjust -= in.Imm
		default:
			return restored
		}
		if flags[i]&flagTarget != 0 {
			// Executions may enter the epilogue here; anything reloaded
			// upstream is skipped on those paths.
			return restored
		}
	}
	return restored
}

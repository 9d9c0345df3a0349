// Package cfg builds intraprocedural control-flow graphs.
//
// Following the paper (§4), a basic block is ended by a branch *and* by a
// call instruction: the PSG places a call node at the end of the block
// containing the call and a return node at the start of the block that
// execution re-enters after the call, so call-terminated blocks make those
// locations exact block boundaries.
//
// The CFG is intraprocedural: a call-terminated block's successor is its
// return point (the interprocedural effect of the call is the PSG's
// concern). Indirect jumps with extracted jump tables (§3.5) get one
// successor per table entry; indirect jumps with unknown targets get no
// successors and are flagged so the analysis can apply the conservative
// all-registers-live assumption.
package cfg

import (
	"fmt"
	"sort"
	"time"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/par"
	"repro/internal/prog"
	"repro/internal/regset"
)

// TermKind classifies how a basic block ends.
type TermKind uint8

const (
	// TermFall: the block falls through to the next block (its
	// terminator is a non-control instruction or a conditional branch's
	// fallthrough path plus target).
	TermFall TermKind = iota

	// TermBranch: unconditional branch.
	TermBranch

	// TermCondBranch: conditional branch (target + fallthrough).
	TermCondBranch

	// TermMultiway: indirect jump through a known jump table.
	TermMultiway

	// TermUnknownJump: indirect jump with unknown targets (§3.5).
	TermUnknownJump

	// TermCall: direct call, indirect call, or call-summary; the
	// successor is the return point.
	TermCall

	// TermExit: ret or halt; an exit from the routine.
	TermExit
)

func (k TermKind) String() string {
	switch k {
	case TermFall:
		return "fall"
	case TermBranch:
		return "branch"
	case TermCondBranch:
		return "cond-branch"
	case TermMultiway:
		return "multiway"
	case TermUnknownJump:
		return "unknown-jump"
	case TermCall:
		return "call"
	case TermExit:
		return "exit"
	}
	return fmt.Sprintf("term?%d", uint8(k))
}

// Block is a basic block: the instruction range [Start, End) of its
// routine's code.
type Block struct {
	ID    int
	Start int
	End   int

	// Succs and Preds are block IDs, deduplicated and sorted.
	Succs []int
	Preds []int

	// Term classifies the block's last instruction.
	Term TermKind

	// Def is the set of registers defined in the block; UBD is the set
	// of registers used before being defined in the block (Figure 6's
	// per-block inputs). Populated by ComputeDefUBD.
	Def regset.Set
	UBD regset.Set
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return b.End - b.Start }

// Graph is the control-flow graph of one routine.
//
// Storage is arena-style: all Block structs live in one contiguous slab
// and every block's Succs and Preds slices are windows into two shared
// arrays, so building a graph costs O(1) large allocations instead of
// O(blocks) small ones and the GC has almost no pointers to chase.
type Graph struct {
	// Routine is the routine this graph describes.
	Routine *prog.Routine

	// RoutineIndex is the routine's index within its program.
	RoutineIndex int

	// Blocks in ascending Start order; Blocks[i].ID == i. The pointers
	// address blockStore, the per-graph slab.
	Blocks []*Block

	// EntryBlocks are the block IDs containing each routine entrance,
	// parallel to Routine.Entries.
	EntryBlocks []int

	// InstrBlock maps each instruction index to its block ID.
	InstrBlock []int

	// blockStore is the slab backing Blocks; succArena and predArena
	// back every block's Succs and Preds slices.
	blockStore []Block
	succArena  []int
	predArena  []int

	// loopMemo caches BlockInLoop's per-block answers, computed lazily
	// by one SCC pass on the first query (see scc.go).
	loopMemo []bool
}

// MemoryFootprint returns the resident bytes of the graph's arena
// storage: the block slab, the pointer index over it, the
// instruction→block map and the successor/predecessor arenas.
func (g *Graph) MemoryFootprint() uint64 {
	return uint64(len(g.blockStore))*uint64(unsafe.Sizeof(Block{})) +
		8*uint64(len(g.Blocks)+len(g.InstrBlock)+len(g.EntryBlocks)) +
		8*uint64(len(g.succArena)+len(g.predArena))
}

// NumArcs returns the number of intraprocedural arcs in the graph.
func (g *Graph) NumArcs() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Succs)
	}
	return n
}

// Terminator returns the block's last instruction.
func (g *Graph) Terminator(b *Block) *isa.Instr {
	return &g.Routine.Code[b.End-1]
}

// CallTargetOf returns, for a call-terminated block, the routine index of
// a direct call target, or -1 for indirect calls and non-call blocks.
func (g *Graph) CallTargetOf(b *Block) int {
	if b.Term != TermCall {
		return -1
	}
	in := g.Terminator(b)
	if in.Op == isa.OpJsr {
		return in.Target
	}
	return -1
}

// Build constructs the CFG for routine index ri of program p.
func Build(p *prog.Program, ri int) *Graph {
	r := p.Routines[ri]
	n := len(r.Code)
	leaders := make([]bool, n)
	for _, e := range r.Entries {
		leaders[e] = true
	}
	if n > 0 {
		leaders[0] = true
	}
	for i := range r.Code {
		in := &r.Code[i]
		switch {
		case in.Op.IsBranch() && in.Op != isa.OpJmp:
			leaders[in.Target] = true
			if i+1 < n {
				leaders[i+1] = true
			}
		case in.Op == isa.OpJmp:
			if in.Table != isa.UnknownTable {
				for _, tgt := range r.Tables[in.Table] {
					leaders[tgt] = true
				}
			}
			if i+1 < n {
				leaders[i+1] = true
			}
		case in.IsBlockEnd():
			// Calls, call summaries, returns, halts.
			if i+1 < n {
				leaders[i+1] = true
			}
		}
	}

	// One slab for every Block struct: count the leaders, allocate once,
	// and point Blocks at the slab entries.
	nBlocks := 0
	for i := 0; i < n; i++ {
		if i == 0 || leaders[i] {
			nBlocks++
		}
	}
	g := &Graph{
		Routine:      r,
		RoutineIndex: ri,
		InstrBlock:   make([]int, n),
		blockStore:   make([]Block, nBlocks),
		Blocks:       make([]*Block, nBlocks),
	}
	start, bi := 0, 0
	for i := 0; i <= n; i++ {
		if i == n || (i > start && leaders[i]) {
			b := &g.blockStore[bi]
			b.ID, b.Start, b.End = bi, start, i
			g.Blocks[bi] = b
			for j := start; j < i; j++ {
				g.InstrBlock[j] = bi
			}
			bi++
			start = i
		}
	}

	// Classify terminators and count successor capacity per block, then
	// carve every block's Succs out of one shared arena.
	succCap := 0
	for _, b := range g.Blocks {
		last := &r.Code[b.End-1]
		switch {
		case last.Op == isa.OpBr:
			b.Term = TermBranch
			succCap++
		case last.Op.IsCondBranch():
			b.Term = TermCondBranch
			succCap += 2
		case last.Op == isa.OpJmp:
			if last.Table == isa.UnknownTable {
				b.Term = TermUnknownJump
			} else {
				b.Term = TermMultiway
				succCap += len(r.Tables[last.Table])
			}
		case last.Op.IsCall() || last.Op == isa.OpCallSummary:
			b.Term = TermCall
			succCap++
		case last.Op.IsReturn():
			b.Term = TermExit
		default:
			b.Term = TermFall
			succCap++
		}
	}
	g.succArena = make([]int, 0, succCap)
	for _, b := range g.Blocks {
		last := &r.Code[b.End-1]
		lo := len(g.succArena)
		addSucc := func(instrIdx int) {
			g.succArena = append(g.succArena, g.InstrBlock[instrIdx])
		}
		switch b.Term {
		case TermBranch:
			addSucc(last.Target)
		case TermCondBranch:
			addSucc(last.Target)
			if b.End < n {
				addSucc(b.End)
			}
		case TermMultiway:
			for _, tgt := range r.Tables[last.Table] {
				addSucc(tgt)
			}
		case TermCall, TermFall:
			if b.End < n {
				addSucc(b.End)
			}
		}
		b.Succs = dedupSorted(g.succArena[lo:len(g.succArena):len(g.succArena)])
	}

	// Preds mirror the deduplicated Succs; count, then fill a second
	// arena. Filling in ascending block order keeps every Preds window
	// sorted and (since Succs are deduplicated) duplicate-free.
	predCount := make([]int, nBlocks)
	predTotal := 0
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			predCount[s]++
			predTotal++
		}
	}
	g.predArena = make([]int, predTotal)
	off := 0
	for _, b := range g.Blocks {
		b.Preds = g.predArena[off : off : off+predCount[b.ID]]
		off += predCount[b.ID]
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			t := g.Blocks[s]
			t.Preds = t.Preds[:len(t.Preds)+1]
			t.Preds[len(t.Preds)-1] = b.ID
		}
	}

	g.EntryBlocks = make([]int, len(r.Entries))
	for i, e := range r.Entries {
		g.EntryBlocks[i] = g.InstrBlock[e]
	}
	return g
}

// BuildAll constructs the CFG of every routine in the program.
func BuildAll(p *prog.Program) []*Graph {
	gs, _ := BuildAllParallel(p, 1)
	return gs
}

// BuildAllParallel constructs the CFG of every routine using up to
// workers goroutines (workers <= 0 selects GOMAXPROCS). Each routine's
// graph is independent of the others, so the result is identical to
// BuildAll for any worker count. The returned duration is the
// aggregate per-routine build time — the stage's CPU time, as opposed
// to the wall time the caller measures around the call.
func BuildAllParallel(p *prog.Program, workers int) ([]*Graph, time.Duration) {
	gs := make([]*Graph, len(p.Routines))
	cpu := par.ForEach(len(p.Routines), workers, func(ri int) {
		gs[ri] = Build(p, ri)
	})
	return gs, cpu
}

// ComputeDefUBDAll populates DEF/UBD for every graph using up to
// workers goroutines, returning the aggregate compute time. Each
// graph's sets depend only on its own routine's instructions.
func ComputeDefUBDAll(gs []*Graph, workers int) time.Duration {
	return par.ForEach(len(gs), workers, func(i int) {
		ComputeDefUBD(gs[i])
	})
}

// ComputeDefUBD populates every block's Def and UBD sets by a single
// forward scan over the block's instructions. This is the
// "Initialization" stage of Figure 13.
func ComputeDefUBD(g *Graph) {
	for _, b := range g.Blocks {
		var def, ubd regset.Set
		for i := b.Start; i < b.End; i++ {
			in := &g.Routine.Code[i]
			ubd = ubd.Union(in.Uses().Minus(def))
			def = def.Union(in.Defs())
		}
		b.Def = def
		b.UBD = ubd
	}
}

// Reachable returns the set of block IDs reachable from the routine's
// entry blocks along intraprocedural arcs.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	var stack []int
	for _, e := range g.EntryBlocks {
		if !seen[e] {
			seen[e] = true
			stack = append(stack, e)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

func dedupSorted(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

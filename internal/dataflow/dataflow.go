// Package dataflow implements conventional intraprocedural dataflow
// analyses over a routine's CFG.
//
// The optimizer consumes routines in *summarized form* (§2): every call
// instruction replaced by a call-summary pseudo-instruction, an entry
// pseudo-instruction at each entrance defining the live-at-entry set, and
// an exit pseudo-instruction at each exit using the live-at-exit set. In
// that form ordinary intraprocedural liveness is exact with respect to
// the whole program.
//
// Raw (unsummarized) call instructions are handled with the §3.5
// calling-standard assumptions so the analyses remain safe on programs
// that have not been through the interprocedural phases.
package dataflow

import (
	"repro/internal/callstd"
	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/regset"
)

// liveOpts customizes the liveness analysis with interprocedural
// knowledge. The zero value falls back to the calling-standard
// assumptions; ComputeLiveness options fill it in.
type liveOpts struct {
	// callTransfer returns the (call-used, call-defined) summary of a
	// call instruction, typically from the interprocedural analysis.
	// Returning ok == false falls back to the calling-standard
	// assumption for that call.
	callTransfer func(in *isa.Instr) (use, def regset.Set, ok bool)

	// exitLiveOut returns the registers live when the routine exits
	// through block b (the interprocedural live-at-exit set). When nil,
	// exits contribute nothing.
	exitLiveOut func(b *cfg.Block) regset.Set

	// metrics, when non-nil, receives the solver's worklist traffic
	// under liveness/* counter names.
	metrics *obs.Metrics
}

// Option configures ComputeLiveness, in the same functional-options
// style as core.Analyze.
type Option func(*liveOpts)

// WithCallTransfer supplies the (call-used, call-defined) summary of a
// call instruction, typically from the interprocedural analysis.
// Returning ok == false falls back to the calling-standard assumption
// for that call.
func WithCallTransfer(f func(in *isa.Instr) (use, def regset.Set, ok bool)) Option {
	return func(o *liveOpts) { o.callTransfer = f }
}

// WithExitLiveOut supplies the registers live when the routine exits
// through a given block (the interprocedural live-at-exit set).
// Without it, exits contribute nothing.
func WithExitLiveOut(f func(b *cfg.Block) regset.Set) Option {
	return func(o *liveOpts) { o.exitLiveOut = f }
}

// WithMetrics publishes the solver's worklist traffic (pushes, block
// visits, runs) into m under liveness/* counters. A nil m disables it.
func WithMetrics(m *obs.Metrics) Option {
	return func(o *liveOpts) { o.metrics = m }
}

// Liveness holds the result of a backward liveness analysis over one
// routine.
type Liveness struct {
	graph *cfg.Graph
	opts  liveOpts

	// In[b] is the set of registers live at entry to block b; Out[b] at
	// exit from block b.
	In  []regset.Set
	Out []regset.Set
}

// callXfer returns the (use, mustDef) transfer for a call instruction.
func (o *liveOpts) callXfer(in *isa.Instr) (use, def regset.Set) {
	if o.callTransfer != nil {
		if u, d, ok := o.callTransfer(in); ok {
			return u, d
		}
	}
	s := callstd.UnknownCallSummary()
	return s.Used, s.Defined
}

// instrXfer applies the backward liveness transfer of one instruction:
// live-before = (live-after − mustDefs) ∪ uses. Calls compose the callee
// summary with the instruction's own register effects (jsr defines ra).
func (o *liveOpts) instrXfer(in *isa.Instr, after regset.Set) regset.Set {
	uses, defs := in.Uses(), in.Defs()
	if in.Op == isa.OpJsr || in.Op == isa.OpJsrInd {
		cu, cd := o.callXfer(in)
		// The call first evaluates its own operands and defines ra,
		// then the callee runs: compose callee transfer then call
		// instruction transfer.
		after = after.Minus(cd).Union(cu)
	}
	return after.Minus(defs).Union(uses)
}

// blockXfer applies the backward transfer of a whole block to the
// live-out set.
func (o *liveOpts) blockXfer(g *cfg.Graph, b *cfg.Block, out regset.Set) regset.Set {
	live := out
	for i := b.End - 1; i >= b.Start; i-- {
		live = o.instrXfer(&g.Routine.Code[i], live)
	}
	return live
}

// blockSeed returns the liveness contributed at the bottom of a block by
// its terminator class rather than by intraprocedural successors: blocks
// ending in an indirect jump with unknown targets make every register
// live (§3.5); exit blocks contribute the live-at-exit set.
func (o *liveOpts) blockSeed(b *cfg.Block) regset.Set {
	switch b.Term {
	case cfg.TermUnknownJump:
		return callstd.UnknownJumpLive()
	case cfg.TermExit:
		if o.exitLiveOut != nil {
			return o.exitLiveOut(b)
		}
	}
	return regset.Empty
}

// ComputeLiveness runs backward may-liveness to a fixed point over the
// routine's blocks. With no options every call uses the
// calling-standard assumptions and exits contribute nothing; the
// options supply interprocedural summaries:
//
//	dataflow.ComputeLiveness(g)                          // calling standard
//	dataflow.ComputeLiveness(g, dataflow.WithCallTransfer(f),
//		dataflow.WithExitLiveOut(x))                 // summarized form
func ComputeLiveness(g *cfg.Graph, opts ...Option) *Liveness {
	var o liveOpts
	for _, op := range opts {
		op(&o)
	}
	n := len(g.Blocks)
	lv := &Liveness{
		graph: g,
		opts:  o,
		In:    make([]regset.Set, n),
		Out:   make([]regset.Set, n),
	}
	// Drive the backward problem in postorder: a block is queued after
	// its successors, so each sweep is near-topological and loop bodies
	// converge in few passes.
	wl := NewOrderedWorklist(n, postorderPrio(g))
	for i := n - 1; i >= 0; i-- {
		wl.Push(i)
	}
	for !wl.Empty() {
		id := wl.Pop()
		b := g.Blocks[id]
		out := o.blockSeed(b)
		for _, s := range b.Succs {
			out = out.Union(lv.In[s])
		}
		lv.Out[id] = out
		in := o.blockXfer(g, b, out)
		if in != lv.In[id] {
			lv.In[id] = in
			for _, p := range b.Preds {
				wl.Push(p)
			}
		}
	}
	if o.metrics != nil {
		pushes, pops := wl.Counts()
		o.metrics.Counter("liveness/runs").Add(1)
		o.metrics.Counter("liveness/worklist_pushes").Add(pushes)
		o.metrics.Counter("liveness/block_visits").Add(pops)
	}
	return lv
}

// LiveAfter returns the set of registers live immediately after the
// instruction at index instr of the routine.
func (lv *Liveness) LiveAfter(instr int) regset.Set {
	g := lv.graph
	b := g.Blocks[g.InstrBlock[instr]]
	live := lv.Out[b.ID]
	for i := b.End - 1; i > instr; i-- {
		live = lv.opts.instrXfer(&g.Routine.Code[i], live)
	}
	return live
}

// EachLiveAfter calls yield once for every instruction of the routine,
// with the set of registers live immediately after it: the set
// LiveAfter(instr) returns. It makes one bottom-up sweep per block, so a
// whole routine costs O(instructions) where a LiveAfter call per
// instruction re-walks from its block's end each time. Blocks are
// visited in ID order, each from its last instruction up to its first.
func (lv *Liveness) EachLiveAfter(yield func(instr int, after regset.Set)) {
	g := lv.graph
	for _, b := range g.Blocks {
		live := lv.Out[b.ID]
		for i := b.End - 1; ; i-- {
			yield(i, live)
			if i == b.Start {
				break
			}
			live = lv.opts.instrXfer(&g.Routine.Code[i], live)
		}
	}
}

// LiveBefore returns the set of registers live immediately before the
// instruction at index instr of the routine.
func (lv *Liveness) LiveBefore(instr int) regset.Set {
	return lv.opts.instrXfer(&lv.graph.Routine.Code[instr], lv.LiveAfter(instr))
}

// postorderPrio numbers the graph's blocks in DFS postorder from the
// entry blocks over successor arcs: every block numbers after the
// blocks it can reach (up to back edges). Blocks unreachable from the
// entries are numbered last, in ascending block order, so the numbering
// is total and deterministic.
func postorderPrio(g *cfg.Graph) []int32 {
	n := len(g.Blocks)
	prio := make([]int32, n)
	for i := range prio {
		prio[i] = -1
	}
	seen := make([]bool, n)
	iter := make([]int32, n)
	stack := make([]int32, 0, n)
	post := int32(0)
	for _, e := range g.EntryBlocks {
		if seen[e] {
			continue
		}
		seen[e] = true
		stack = append(stack, int32(e))
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			succs := g.Blocks[b].Succs
			if int(iter[b]) < len(succs) {
				nxt := int32(succs[iter[b]])
				iter[b]++
				if !seen[nxt] {
					seen[nxt] = true
					stack = append(stack, nxt)
				}
				continue
			}
			stack = stack[:len(stack)-1]
			prio[b] = post
			post++
		}
	}
	for i := 0; i < n; i++ {
		if prio[i] < 0 {
			prio[i] = post
			post++
		}
	}
	return prio
}

// Worklist is a node worklist with O(1) duplicate suppression, the
// driver for every iterative dataflow solver in this codebase. It runs
// in one of two modes: FIFO (the classic round-robin worklist), or —
// when a priority numbering is supplied — as a min-heap that always
// pops the queued node with the smallest priority. With priorities set
// to a (reverse) postorder numbering, each sweep visits nodes in
// near-topological order and loops converge with far fewer
// recomputations than FIFO order. Both modes are deterministic: the
// heap breaks priority ties by node ID.
//
// A Worklist is reusable: Reset re-arms it for a new problem without
// reallocating, so solvers can keep one instance per worker (or in a
// sync.Pool) and run the steady state allocation-free.
type Worklist struct {
	queue  []int32
	head   int // FIFO read cursor; always 0 in heap mode
	queued []bool
	prio   []int32 // nil → FIFO; else min-heap on prio[id]

	// pushes counts every Push call (including duplicate-suppressed
	// ones — the propagation traffic offered to the solver); pops
	// counts every Pop (the node visits actually performed). Both are
	// plain locals of the owning solver, zeroed by Reset and read via
	// Counts; solvers flush them into an obs.Metrics registry once per
	// unit of work.
	pushes, pops uint64
}

// NewWorklist returns a FIFO worklist for node IDs in [0, n).
func NewWorklist(n int) *Worklist {
	w := &Worklist{}
	w.Reset(n, nil)
	return w
}

// NewOrderedWorklist returns a priority worklist for node IDs in
// [0, n): Pop returns the queued id with the smallest prio[id],
// breaking ties toward the smaller id. prio must have length >= n and
// must not be mutated while the worklist is in use.
func NewOrderedWorklist(n int, prio []int32) *Worklist {
	w := &Worklist{}
	w.Reset(n, prio)
	return w
}

// Reset re-arms the worklist for node IDs in [0, n) with the given
// priority numbering (nil selects FIFO order), reusing the existing
// storage when it is large enough.
func (w *Worklist) Reset(n int, prio []int32) {
	if cap(w.queued) < n {
		w.queued = make([]bool, n)
	} else {
		w.queued = w.queued[:n]
		for i := range w.queued {
			w.queued[i] = false
		}
	}
	w.queue = w.queue[:0]
	w.head = 0
	w.prio = prio
	w.pushes = 0
	w.pops = 0
}

// Counts returns the number of Push and Pop calls since the last
// Reset. Pops equals the solver's node-visit (iteration) count.
func (w *Worklist) Counts() (pushes, pops uint64) { return w.pushes, w.pops }

func (w *Worklist) less(a, b int32) bool {
	pa, pb := w.prio[a], w.prio[b]
	return pa < pb || (pa == pb && a < b)
}

// Push adds id to the worklist if it is not already queued.
func (w *Worklist) Push(id int) {
	w.pushes++
	if w.queued[id] {
		return
	}
	w.queued[id] = true
	w.queue = append(w.queue, int32(id))
	if w.prio == nil {
		return
	}
	// Sift the new leaf up.
	i := len(w.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !w.less(w.queue[i], w.queue[parent]) {
			break
		}
		w.queue[i], w.queue[parent] = w.queue[parent], w.queue[i]
		i = parent
	}
}

// Pop removes and returns the next node. It panics if the list is empty.
func (w *Worklist) Pop() int {
	w.pops++
	if w.prio == nil {
		id := w.queue[w.head]
		w.head++
		if w.head == len(w.queue) {
			w.queue = w.queue[:0]
			w.head = 0
		}
		w.queued[id] = false
		return int(id)
	}
	id := w.queue[0]
	last := len(w.queue) - 1
	w.queue[0] = w.queue[last]
	w.queue = w.queue[:last]
	// Sift the displaced root down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && w.less(w.queue[l], w.queue[min]) {
			min = l
		}
		if r < last && w.less(w.queue[r], w.queue[min]) {
			min = r
		}
		if min == i {
			break
		}
		w.queue[i], w.queue[min] = w.queue[min], w.queue[i]
		i = min
	}
	w.queued[id] = false
	return int(id)
}

// Empty reports whether the worklist has no queued nodes.
func (w *Worklist) Empty() bool { return len(w.queue) == w.head }

// Len returns the number of queued nodes.
func (w *Worklist) Len() int { return len(w.queue) - w.head }

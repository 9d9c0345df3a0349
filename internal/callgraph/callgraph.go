// Package callgraph builds the routine-level call graph of a program,
// condenses it into strongly connected components (Tarjan), and derives
// the topological wave schedule the interprocedural phases run on.
//
// The two PSG phases propagate information across routine boundaries in
// opposite directions: phase 1 moves callee summaries into callers
// (callee-first order), phase 2 moves caller liveness into callees
// (caller-first order). Condensing the call graph turns both into
// schedules over a DAG of components: components with no remaining
// dependencies form a wave and are mutually independent, so a wave's
// components may be solved concurrently while the wave sequence
// preserves the dependency order. This is the standard route to
// scalable parallel interprocedural analysis (Chatterjee et al. 2020,
// Zaher 2023).
//
// Indirect calls couple otherwise unrelated routines: under the
// closed-world configuration, every indirect call site depends on every
// address-taken routine (phase 1 folds their entry summaries into the
// call's label; phase 2 links their exits back to the call's return
// site). Build therefore pins all routines containing indirect calls
// together with all address-taken routines into one shared component —
// realized as synthetic two-way edges through a hub routine, so Tarjan
// merges the pinned set (and anything on a path between two pinned
// routines, which is genuinely cyclic with it) and the condensation
// stays acyclic. Under the open-world configuration (§3.5) indirect
// calls carry constant calling-standard labels and create no
// dependencies, so no pinning is applied.
//
// Everything is deterministic: routines are visited in index order,
// edges in sorted order, components are numbered in Tarjan emission
// order (callee-first topological order of the condensation), and waves
// list their components in ascending order.
package callgraph

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prog"
)

// Graph is the call graph of a program together with its SCC
// condensation and wave schedules.
type Graph struct {
	prog *prog.Program

	// Per routine: sorted, de-duplicated direct call edges.
	callees [][]int
	callers [][]int

	hasIndirect []bool // routine contains at least one indirect call
	addrTaken   []int  // address-taken routine indices, ascending

	pinned     bool // indirect pinning was applied
	pinnedComp int  // component holding the pinned routines, or -1

	comp  []int   // routine index → component ID
	comps [][]int // component ID → member routines, ascending

	// Condensation edges between distinct components, sorted unique.
	compCallees [][]int
	compCallers [][]int

	// Wave indices per component: calleeWave is the callee-first
	// (phase 1) wave, callerWave the caller-first (phase 2) wave.
	calleeWave []int
	callerWave []int

	// Wave → component IDs, ascending within each wave.
	calleeWaves [][]int
	callerWaves [][]int

	pinIndirect bool // the WithIndirectPinning setting the graph was built with
	reused      bool // this graph is a structural reuse of a previous build
}

// options collects the Build knobs.
type options struct {
	pinIndirect bool
	span        obs.Span
	metrics     *obs.Metrics
}

// Option configures Build.
type Option func(*options)

// WithIndirectPinning controls whether routines containing indirect
// calls and address-taken routines are pinned into one shared component
// (the closed-world coupling described in the package comment). Pass
// the analysis's LinkIndirectCalls setting. Pinning is a no-op when the
// program has no indirect calls or no address-taken routines.
func WithIndirectPinning(on bool) Option {
	return func(o *options) { o.pinIndirect = on }
}

// WithObs records Build's sub-stages (edge collection, condensation,
// scheduling) as child spans of parent and publishes graph-shape
// counters (callgraph/*) into m. A zero parent or a nil m disables that
// half.
func WithObs(parent obs.Span, m *obs.Metrics) Option {
	return func(o *options) {
		o.span = parent
		o.metrics = m
	}
}

// Build constructs the call graph of p, its condensation and its wave
// schedules. The same program and options always produce the identical
// Graph.
func Build(p *prog.Program, opts ...Option) *Graph {
	return buildGraph(p, nil, nil, opts)
}

// BuildIncremental constructs the call graph of p, reusing the
// per-routine edge scans of prev for routines marked clean. clean[ri]
// may only be true when routine ri of prev's program has an identical
// body (the incremental re-analysis guarantees this via content
// hashes); such routines share prev's callee slices, which both graphs
// treat as read-only. The result is identical to Build(p, opts...).
//
// When every dirty routine turns out to have the same call edges,
// indirect-call flag and address-taken flag as before — the common case
// for a body edit — the whole graph is structurally identical to prev
// and BuildIncremental returns a copy of prev sharing all derived
// arrays (condensation, schedules), skipping Tarjan and scheduling
// outright. StructureReused reports when this happened. Otherwise,
// condensation and scheduling are recomputed in full — they are
// O(routines + edges) and cheap next to the per-body scans.
func BuildIncremental(p *prog.Program, prev *Graph, clean []bool, opts ...Option) *Graph {
	return buildGraph(p, prev, clean, opts)
}

// StructureReused reports whether this graph was returned by
// BuildIncremental's structural-reuse fast path: every derived array
// (components, condensation edges, waves) is shared with — and
// therefore identical to — the previous build's.
func (g *Graph) StructureReused() bool { return g.reused }

// scanRoutine computes the sorted unique direct-callee list and the
// has-indirect flag of one routine body — the per-routine half of edge
// collection, shared by the full build and the reuse check.
func scanRoutine(r *prog.Routine) (callees []int, hasIndirect bool) {
	seen := map[int]bool{}
	for i := range r.Code {
		switch r.Code[i].Op {
		case isa.OpJsr:
			t := r.Code[i].Target
			if !seen[t] {
				seen[t] = true
				callees = append(callees, t)
			}
		case isa.OpJsrInd:
			hasIndirect = true
		}
	}
	sort.Ints(callees)
	return callees, hasIndirect
}

// reusableFor reports whether the graph of p is structurally identical
// to g: same routine count, same pinning option, and every dirty
// routine re-scans to the same call edges, indirect flag and
// address-taken flag. Clean routines are hash-identical by contract
// (the hash covers calls and the address-taken flag), so only dirty
// ones need scanning.
func (g *Graph) reusableFor(p *prog.Program, clean []bool, pinIndirect bool) bool {
	if pinIndirect != g.pinIndirect ||
		len(p.Routines) != len(g.callees) || len(clean) != len(p.Routines) {
		return false
	}
	for ri, r := range p.Routines {
		if clean[ri] {
			continue
		}
		cs, ind := scanRoutine(r)
		if ind != g.hasIndirect[ri] || len(cs) != len(g.callees[ri]) {
			return false
		}
		for i, t := range cs {
			if t != g.callees[ri][i] {
				return false
			}
		}
		i := sort.SearchInts(g.addrTaken, ri)
		wasTaken := i < len(g.addrTaken) && g.addrTaken[i] == ri
		if r.AddressTaken != wasTaken {
			return false
		}
	}
	return true
}

func buildGraph(p *prog.Program, prev *Graph, clean []bool, opts []Option) *Graph {
	var o options
	for _, op := range opts {
		op(&o)
	}
	n := len(p.Routines)
	if prev != nil && prev.reusableFor(p, clean, o.pinIndirect) {
		ng := *prev
		ng.prog = p
		ng.reused = true
		o.span.Begin("callgraph reuse").Arg("routines", int64(n)).End()
		if m := o.metrics; m != nil {
			publishGraphMetrics(m, &ng)
		}
		return &ng
	}
	g := &Graph{
		prog:        p,
		callees:     make([][]int, n),
		callers:     make([][]int, n),
		hasIndirect: make([]bool, n),
		pinnedComp:  -1,
		pinIndirect: o.pinIndirect,
	}
	esp := o.span.Begin("callgraph edges").Arg("routines", int64(n))
	for ri, r := range p.Routines {
		if prev != nil && ri < len(clean) && clean[ri] && ri < len(prev.callees) {
			g.callees[ri] = prev.callees[ri]
			g.hasIndirect[ri] = prev.hasIndirect[ri]
		} else {
			g.callees[ri], g.hasIndirect[ri] = scanRoutine(r)
		}
		if r.AddressTaken {
			g.addrTaken = append(g.addrTaken, ri)
		}
	}
	for ri, cs := range g.callees {
		for _, t := range cs {
			g.callers[t] = append(g.callers[t], ri)
		}
	}
	for ri := range g.callers {
		sort.Ints(g.callers[ri])
	}
	esp.End()

	adj := g.callees
	var pins []int
	if o.pinIndirect {
		if pins = g.pinSet(); len(pins) > 0 {
			g.pinned = true
			if len(pins) > 1 {
				adj = g.pinAdjacency(pins)
			}
		}
	}
	csp := o.span.Begin("callgraph condense")
	g.condense(adj)
	csp.Arg("components", int64(len(g.comps))).End()
	ssp := o.span.Begin("callgraph schedule")
	g.schedule()
	ssp.Arg("waves", int64(len(g.calleeWaves))).End()
	if g.pinned {
		g.pinnedComp = g.comp[pins[0]]
	}
	if m := o.metrics; m != nil {
		publishGraphMetrics(m, g)
	}
	return g
}

// publishGraphMetrics stores the callgraph/* shape counters for a
// finished graph. Shared by the full build and the structural-reuse
// fast path so both publish identical values.
func publishGraphMetrics(m *obs.Metrics, g *Graph) {
	edges, recursive := 0, 0
	for _, cs := range g.callees {
		edges += len(cs)
	}
	for c := range g.comps {
		if g.Recursive(c) {
			recursive++
		}
	}
	pins := 0
	if g.pinIndirect {
		pins = len(g.pinSet())
	}
	m.Counter("callgraph/routines").Store(uint64(len(g.callees)))
	m.Counter("callgraph/call_edges").Store(uint64(edges))
	m.Counter("callgraph/components").Store(uint64(len(g.comps)))
	m.Counter("callgraph/recursive_components").Store(uint64(recursive))
	m.Counter("callgraph/waves").Store(uint64(len(g.calleeWaves)))
	m.Counter("callgraph/pinned_routines").Store(uint64(pins))
}

// pinSet returns the routines coupled by indirect calls: every routine
// containing an indirect call plus every address-taken routine, or nil
// when either side is absent (no coupling exists then: with no
// address-taken routines an indirect call's label is the constant
// calling-standard summary; with no indirect calls there is no site to
// couple to).
func (g *Graph) pinSet() []int {
	anyIndirect := false
	for _, h := range g.hasIndirect {
		if h {
			anyIndirect = true
			break
		}
	}
	if !anyIndirect || len(g.addrTaken) == 0 {
		return nil
	}
	in := make([]bool, len(g.hasIndirect))
	var pins []int
	for ri, h := range g.hasIndirect {
		if h {
			in[ri] = true
			pins = append(pins, ri)
		}
	}
	for _, ri := range g.addrTaken {
		if !in[ri] {
			in[ri] = true
			pins = append(pins, ri)
		}
	}
	sort.Ints(pins)
	return pins
}

// pinAdjacency returns the callee adjacency augmented with synthetic
// two-way edges between each pinned routine and the hub (the smallest
// pinned index), which forces Tarjan to merge the pinned set into one
// SCC without disturbing the real edges.
func (g *Graph) pinAdjacency(pins []int) [][]int {
	adj := make([][]int, len(g.callees))
	for ri, cs := range g.callees {
		adj[ri] = append([]int(nil), cs...)
	}
	hub := pins[0]
	for _, p := range pins[1:] {
		adj[p] = append(adj[p], hub)
		adj[hub] = append(adj[hub], p)
	}
	for ri := range adj {
		sort.Ints(adj[ri])
	}
	return adj
}

// condense runs an iterative Tarjan SCC over adj and fills comp/comps
// and the condensation edges. Components are numbered in emission
// order, which for edges directed caller→callee means every component's
// callees have smaller IDs: ascending component order is a callee-first
// topological order of the condensation.
func (g *Graph) condense(adj [][]int) {
	n := len(adj)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	g.comp = make([]int, n)
	for i := range index {
		index[i] = unvisited
		g.comp[i] = unvisited
	}
	var stack []int
	next := 0

	// Explicit DFS frames: v plus the position within adj[v].
	type frame struct{ v, i int }
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(adj[f.v]) {
				w := adj[f.v][f.i]
				f.i++
				switch {
				case index[w] == unvisited:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				case onStack[w]:
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v is an SCC root: pop its members.
			cid := len(g.comps)
			var members []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				g.comp[w] = cid
				members = append(members, w)
				if w == v {
					break
				}
			}
			sort.Ints(members)
			g.comps = append(g.comps, members)
		}
	}

	// Condensation edges from the real call edges only (the synthetic
	// pin edges never cross components — that is what they are for).
	nc := len(g.comps)
	g.compCallees = make([][]int, nc)
	g.compCallers = make([][]int, nc)
	for c, members := range g.comps {
		seen := map[int]bool{}
		for _, ri := range members {
			for _, t := range g.callees[ri] {
				tc := g.comp[t]
				if tc != c && !seen[tc] {
					seen[tc] = true
					g.compCallees[c] = append(g.compCallees[c], tc)
				}
			}
		}
		sort.Ints(g.compCallees[c])
	}
	for c, cs := range g.compCallees {
		for _, t := range cs {
			g.compCallers[t] = append(g.compCallers[t], c)
		}
	}
	for c := range g.compCallers {
		sort.Ints(g.compCallers[c])
	}
}

// schedule computes both wave numberings over the condensation DAG.
// The callee-first wave of a component is one more than the deepest
// callee wave (leaves are wave 0); the caller-first wave is one more
// than the deepest caller wave (roots are wave 0). Because every
// condensation edge strictly separates the waves of its endpoints in
// both numberings, components sharing a wave are pairwise non-adjacent
// and may be solved concurrently.
func (g *Graph) schedule() {
	nc := len(g.comps)
	g.calleeWave = make([]int, nc)
	g.callerWave = make([]int, nc)
	// Ascending component order is callee-first topological order, so
	// callees are finalized before their callers…
	for c := 0; c < nc; c++ {
		w := 0
		for _, t := range g.compCallees[c] {
			if g.calleeWave[t]+1 > w {
				w = g.calleeWave[t] + 1
			}
		}
		g.calleeWave[c] = w
	}
	// …and descending order finalizes callers before their callees.
	for c := nc - 1; c >= 0; c-- {
		w := 0
		for _, t := range g.compCallers[c] {
			if g.callerWave[t]+1 > w {
				w = g.callerWave[t] + 1
			}
		}
		g.callerWave[c] = w
	}
	bucket := func(wave []int) [][]int {
		max := -1
		for _, w := range wave {
			if w > max {
				max = w
			}
		}
		out := make([][]int, max+1)
		for c, w := range wave { // ascending c keeps waves sorted
			out[w] = append(out[w], c)
		}
		return out
	}
	g.calleeWaves = bucket(g.calleeWave)
	g.callerWaves = bucket(g.callerWave)
}

// NumRoutines returns the number of routines in the underlying program.
func (g *Graph) NumRoutines() int { return len(g.callees) }

// NumComponents returns the number of strongly connected components.
func (g *Graph) NumComponents() int { return len(g.comps) }

// NumWaves returns the number of scheduling waves (identical for both
// orders: both equal the longest dependency chain in the condensation).
func (g *Graph) NumWaves() int { return len(g.calleeWaves) }

// Component returns the component ID of routine ri.
func (g *Graph) Component(ri int) int { return g.comp[ri] }

// Members returns the routine indices of component c, ascending. The
// slice is shared; callers must not modify it.
func (g *Graph) Members(c int) []int { return g.comps[c] }

// Callees returns the direct callees of routine ri (sorted, unique).
func (g *Graph) Callees(ri int) []int { return g.callees[ri] }

// Callers returns the direct callers of routine ri (sorted, unique).
func (g *Graph) Callers(ri int) []int { return g.callers[ri] }

// ComponentCallees returns the components that component c's members
// call into, excluding c itself.
func (g *Graph) ComponentCallees(c int) []int { return g.compCallees[c] }

// ComponentCallers returns the components that call into component c,
// excluding c itself.
func (g *Graph) ComponentCallers(c int) []int { return g.compCallers[c] }

// CalleeFirstWave returns the phase-1 (callee-first) wave index of
// component c; wave 0 holds the leaf components.
func (g *Graph) CalleeFirstWave(c int) int { return g.calleeWave[c] }

// CallerFirstWave returns the phase-2 (caller-first) wave index of
// component c; wave 0 holds the root components.
func (g *Graph) CallerFirstWave(c int) int { return g.callerWave[c] }

// CalleeFirstWaves returns the callee-first schedule: wave index →
// component IDs, ascending within each wave.
func (g *Graph) CalleeFirstWaves() [][]int { return g.calleeWaves }

// CallerFirstWaves returns the caller-first schedule: wave index →
// component IDs, ascending within each wave.
func (g *Graph) CallerFirstWaves() [][]int { return g.callerWaves }

// Recursive reports whether component c contains a cycle: more than one
// member, or a single member that calls itself.
func (g *Graph) Recursive(c int) bool {
	m := g.comps[c]
	if len(m) > 1 {
		return true
	}
	for _, t := range g.callees[m[0]] {
		if t == m[0] {
			return true
		}
	}
	return false
}

// HasIndirectCall reports whether routine ri contains an indirect call.
func (g *Graph) HasIndirectCall(ri int) bool { return g.hasIndirect[ri] }

// AddressTaken returns the address-taken routine indices, ascending.
func (g *Graph) AddressTaken() []int { return g.addrTaken }

// Pinned reports whether indirect pinning merged routines into a shared
// component (see WithIndirectPinning).
func (g *Graph) Pinned() bool { return g.pinned }

// PinnedComponent returns the component holding the pinned routines, or
// -1 when no pinning was applied.
func (g *Graph) PinnedComponent() int { return g.pinnedComp }

// TransitiveCallers returns every component from which some component
// in seeds is reachable along call edges — the seeds themselves plus
// all their direct and transitive caller components, ascending. This
// is the phase-1 dirty cone of an edit: a changed entry summary can
// affect exactly the components that (transitively) call it.
func (g *Graph) TransitiveCallers(seeds []int) []int {
	return g.cone(seeds, g.compCallers)
}

// TransitiveCallees returns the seeds plus all components they directly
// or transitively call, ascending — the phase-2 dirty cone of an edit:
// changed return-site liveness can affect exactly the components the
// edited code (transitively) calls.
func (g *Graph) TransitiveCallees(seeds []int) []int {
	return g.cone(seeds, g.compCallees)
}

func (g *Graph) cone(seeds []int, next [][]int) []int {
	seen := make([]bool, len(g.comps))
	var out, work []int
	for _, c := range seeds {
		if c >= 0 && c < len(seen) && !seen[c] {
			seen[c] = true
			work = append(work, c)
			out = append(out, c)
		}
	}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		for _, t := range next[c] {
			if !seen[t] {
				seen[t] = true
				work = append(work, t)
				out = append(out, t)
			}
		}
	}
	sort.Ints(out)
	return out
}

// LargestComponent returns the size of the biggest component, or 0 for
// an empty program.
func (g *Graph) LargestComponent() int {
	max := 0
	for _, m := range g.comps {
		if len(m) > max {
			max = len(m)
		}
	}
	return max
}

package cfg

// BlockInLoop reports whether control can flow from block id back to
// itself: true exactly for blocks inside a strongly connected component
// of two or more blocks, or with a self-arc. Unlike FindLoops (natural
// loops), this includes irreducible cycles.
//
// The first query runs one iterative Tarjan SCC pass over the whole
// graph and memoizes every block's answer; later queries are lookups.
// The graph is immutable after construction, so the memo never
// invalidates — but the lazy computation is not synchronized, so first
// use must not be concurrent (PSG construction queries it from its
// serial structural pass).
func (g *Graph) BlockInLoop(id int) bool {
	if g.loopMemo == nil {
		g.computeLoopMemo()
	}
	return g.loopMemo[id]
}

func (g *Graph) computeLoopMemo() {
	n := len(g.Blocks)
	bools := make([]bool, 2*n)
	memo, on := bools[:n], bools[n:]
	ints := make([]int32, 3*n, 5*n)
	idx, low, iter := ints[:n], ints[n:2*n], ints[2*n:3*n]
	sccStk := ints[3*n : 3*n : 4*n]
	frames := ints[4*n : 4*n : 5*n]
	next := int32(1)
	for r := 0; r < n; r++ {
		if idx[r] != 0 {
			continue
		}
		frames = append(frames, int32(r))
		for len(frames) > 0 {
			v := frames[len(frames)-1]
			if idx[v] == 0 {
				idx[v], low[v] = next, next
				next++
				iter[v] = 0
				on[v] = true
				sccStk = append(sccStk, v)
			}
			succs := g.Blocks[v].Succs
			if int(iter[v]) < len(succs) {
				w := int32(succs[iter[v]])
				iter[v]++
				if idx[w] == 0 {
					frames = append(frames, w)
				} else if on[w] && idx[w] < low[v] {
					low[v] = idx[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1]; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == idx[v] {
				// v roots an SCC: pop it. A component of two or more
				// blocks is a cycle; a singleton is only if it loops to
				// itself.
				top := len(sccStk)
				for sccStk[top-1] != v {
					top--
				}
				members := sccStk[top-1:]
				cyclic := len(members) > 1
				for _, m := range members {
					on[m] = false
					memo[m] = cyclic
				}
				if !cyclic {
					for _, succ := range g.Blocks[v].Succs {
						if int32(succ) == v {
							memo[v] = true
							break
						}
					}
				}
				sccStk = sccStk[:top-1]
			}
		}
	}
	g.loopMemo = memo
}

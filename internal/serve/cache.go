package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/sxe"
)

// lruCache is a mutex-guarded LRU map: the daemon's program registry
// and analysis cache are both instances. Capacity is by entry count —
// the entries (decoded programs, converged analyses) dominate memory,
// so a count bound is an effective byte bound for a given workload.
type lruCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	onEvict func(key string, v any)
}

type lruItem struct {
	key string
	v   any
}

// newLRU returns a cache bounded to max entries (max <= 0 means
// unbounded). onEvict, when non-nil, observes capacity evictions (not
// explicit removes) with the cache lock held — it must not reenter.
func newLRU(max int, onEvict func(string, any)) *lruCache {
	return &lruCache{
		max:     max,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		onEvict: onEvict,
	}
}

// get returns the entry under key, marking it most recently used.
func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).v, true
}

// getOrCreate returns the entry under key, constructing and inserting
// mk() if absent; created reports which happened. The construction runs
// under the cache lock, so concurrent callers of the same key observe
// exactly one creation (the entry itself does any slow work after).
func (c *lruCache) getOrCreate(key string, mk func() any) (v any, created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem).v, false
	}
	v = mk()
	c.items[key] = c.ll.PushFront(&lruItem{key: key, v: v})
	c.evictOverflow()
	return v, true
}

// add inserts or replaces the entry under key and marks it most
// recently used.
func (c *lruCache) add(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).v = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, v: v})
	c.evictOverflow()
}

func (c *lruCache) evictOverflow() {
	for c.max > 0 && c.ll.Len() > c.max {
		el := c.ll.Back()
		it := el.Value.(*lruItem)
		c.ll.Remove(el)
		delete(c.items, it.key)
		if c.onEvict != nil {
			c.onEvict(it.key, it.v)
		}
	}
}

// compareAndRemove drops the entry under key only while key still
// maps to v, and reports whether it did. A caller dropping a failed
// entry must not take out a finished one that another request
// installed under the same key in the meantime.
func (c *lruCache) compareAndRemove(key string, v any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*lruItem).v != v {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	return true
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// keys returns the cached keys, most recently used first (test hook).
func (c *lruCache) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem).key)
	}
	return out
}

// loadedProgram is one program in the daemon's registry. img is its
// canonical encoding, which the ID hashes and a patch of the program
// splices.
type loadedProgram struct {
	id   string
	prog *prog.Program
	info api.ProgramInfo
	img  *sxe.Image
}

// analysisEntry is one (program × option set) in the analysis cache,
// shared by every route and wire schema. The entry is inserted before
// the analysis runs, so concurrent requests for the same key share one
// compute (singleflight); waiters block on done. The entry counts its
// waiters: when the last waiter abandons (its HTTP request was
// cancelled) before the compute finishes, the compute's context is
// cancelled and the analysis stops at its next cancellation point
// instead of leaking workers — the request lifecycle owns the analysis
// lifecycle.
//
// Point queries read the analysis itself, and the full document is
// written from it for each request that asks for one (docResponse).
type analysisEntry struct {
	done chan struct{}

	// Immutable after done closes. metrics is the snapshot of the
	// run's private registry taken when it finished: later lazy
	// liveness solves still count into that registry, so a snapshot
	// taken at render time would depend on the queries served first.
	a       *core.Analysis
	metrics obs.Snapshot
	err     error

	mu       sync.Mutex
	waiters  int
	finished bool
	cancel   context.CancelFunc
}

func newAnalysisEntry() *analysisEntry {
	return &analysisEntry{done: make(chan struct{})}
}

// finishedEntry wraps an already-computed analysis (from the patch,
// optimize or snapshot-load endpoints) and the snapshot of the registry
// it ran with as a ready cache entry: done is closed, so waiters return
// immediately.
func finishedEntry(a *core.Analysis, metrics obs.Snapshot) *analysisEntry {
	e := newAnalysisEntry()
	e.a = a
	e.metrics = metrics
	e.finished = true
	close(e.done)
	return e
}

// compute runs the analysis under its own cancellable context, against
// a private metrics registry whose snapshot it keeps, so every document
// rendered from this entry (timings included) is identical for every
// request that reads it. It renders no document: point queries never
// need one.
//
// tr is the tree of the request that created the entry, positioned
// under its root: the analysis records its "analyze" span and stages
// there and closes them itself, so the tree stays truthful even when
// the creating request abandons and another waiter inherits the
// compute. tr is nil when that request was untraced.
func (e *analysisEntry) compute(ctx context.Context, p *prog.Program, o api.Options, parallel int, tr *obs.Tracer) {
	m := obs.NewMetrics()
	a, err := core.AnalyzeContext(ctx, p,
		o.AnalysisOptions(core.WithParallelism(parallel), core.WithMetrics(m),
			core.WithTracer(tr))...)
	if err == nil {
		e.a = a
		e.metrics = m.Snapshot()
	}
	e.err = err
	e.mu.Lock()
	e.finished = true
	e.mu.Unlock()
	close(e.done)
}

// ready reports whether the entry's analysis has already finished —
// a waiter joining now will not block.
func (e *analysisEntry) ready() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// wait blocks until the entry's analysis is ready or ctx is cancelled.
// It returns whether this waiter was the last one to abandon a still-
// running compute — in which case it has cancelled the compute and the
// caller must drop the entry from the cache.
func (e *analysisEntry) wait(ctx context.Context) (abandoned bool, err error) {
	e.mu.Lock()
	e.waiters++
	e.mu.Unlock()
	select {
	case <-e.done:
		e.mu.Lock()
		e.waiters--
		e.mu.Unlock()
		return false, e.err
	case <-ctx.Done():
		e.mu.Lock()
		e.waiters--
		abandoned = e.waiters == 0 && !e.finished
		e.mu.Unlock()
		if abandoned {
			e.cancel()
		}
		return abandoned, ctx.Err()
	}
}

// Package par provides the bounded worker pool the analysis pipeline
// uses for its per-routine stages. The pool is deliberately minimal:
// work items are identified by index, callers write results into
// pre-sized slots (one per index), and merging therefore needs no
// locks and produces the same output regardless of worker count or
// scheduling order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers resolves a requested parallelism degree: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n), using up to workers
// goroutines, and returns the aggregate compute time spent inside the
// workers — the "CPU time" of the stage, as opposed to its wall time,
// which the caller measures around the call. workers <= 0 selects
// GOMAXPROCS; workers == 1 (or n <= 1) runs fn on the calling
// goroutine with no pool at all, so a serial configuration behaves
// exactly like a plain loop.
//
// fn must be safe to call concurrently for distinct indices; writes
// must go to per-index slots so results are deterministic.
func ForEach(n, workers int, fn func(i int)) time.Duration {
	return ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the worker's pool index passed
// alongside the item index: fn(w, i) with w in [0, min(workers, n)).
// A given worker id runs on exactly one goroutine for the duration of
// the call (worker 0 is the calling goroutine in the serial case), so
// per-worker state needs no synchronization inside fn.
func ForEachWorker(n, workers int, fn func(worker, i int)) time.Duration {
	if n <= 0 {
		return 0
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return time.Since(start)
	}
	var (
		next atomic.Int64
		cpu  atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(w, i)
			}
			cpu.Add(int64(time.Since(start)))
		}(w)
	}
	wg.Wait()
	return time.Duration(cpu.Load())
}

// ForEachSpan is ForEach with per-item occupancy spans: each item i is
// wrapped in a span named name (annotated with the item index), a
// child of parent on the owning worker's track, so a Perfetto capture
// shows pool utilization and stragglers per stage. A zero parent
// delegates straight to ForEach.
func ForEachSpan(parent obs.Span, name string, n, workers int, fn func(i int)) time.Duration {
	if parent == (obs.Span{}) {
		return ForEach(n, workers, fn)
	}
	return ForEachWorker(n, workers, func(w, i int) {
		sp := parent.Worker(w, name).Arg("item", int64(i))
		fn(i)
		sp.End()
	})
}

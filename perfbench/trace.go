package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder keeps the spans of a traced run in memory: one span around
// every public call the benchmark makes, plus child spans synthesized
// from what the program returns (core.Stats stage times, the optimizer
// tracer's analysis spans). At exit they are written as Chrome
// trace_event JSON, the format `spike -trace` emits. A nil *recorder
// records nothing.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []spanRec
	tracks map[int]string
	// foreign holds already-rendered trace events from the daemon's
	// flight recorder, shown as a second process.
	foreign []map[string]any
}

type spanRec struct {
	name   string
	tid    int
	parent int32 // index of the parent span, -1 for an operation root
	start  int64 // ns since origin
	dur    int64 // ns; -1 while open
	args   map[string]int64
}

const noSpan int32 = -1

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), tracks: map[int]string{}}
}

func (r *recorder) track(tid int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracks[tid] = name
	r.mu.Unlock()
}

// begin opens a span on track tid under parent (noSpan for an
// operation root).
func (r *recorder) begin(tid int, parent int32, name string) int32 {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{name: name, tid: tid, parent: parent, start: now, dur: -1})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(id int32) {
	if r == nil || id == noSpan {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id].dur = now - r.spans[id].start
	r.mu.Unlock()
}

// add records a completed span with explicit times, for layers whose
// durations come from the program (stage times, tracer spans) rather
// than from the benchmark's own clock.
func (r *recorder) add(tid int, parent int32, name string, start time.Time, d time.Duration) int32 {
	if r == nil {
		return noSpan
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{name: name, tid: tid, parent: parent,
		start: int64(start.Sub(r.origin)), dur: int64(d)})
	return int32(len(r.spans) - 1)
}

func (r *recorder) arg(id int32, key string, v int64) {
	if r == nil || id == noSpan {
		return
	}
	r.mu.Lock()
	if r.spans[id].args == nil {
		r.spans[id].args = map[string]int64{}
	}
	r.spans[id].args[key] = v
	r.mu.Unlock()
}

// attribution sums, per operation kind, the wall time of its operations
// and the self time of every layer below them. A layer's self time is
// its span minus the time its child spans cover; the root's own self
// time is the benchmark's unattributed overhead ("bench.self").
type attribution struct {
	wall  map[string]float64            // kind → Σ operation wall ms
	self  map[string]map[string]float64 // kind → layer → Σ self ms
	worst map[string]float64            // kind → most negative self ms seen
}

func newAttribution() *attribution {
	return &attribution{wall: map[string]float64{}, self: map[string]map[string]float64{}, worst: map[string]float64{}}
}

const unattributed = "bench.self"

func (a *attribution) addSelf(kind, layer string, msSelf float64) {
	if a.self[kind] == nil {
		a.self[kind] = map[string]float64{}
	}
	a.self[kind][layer] += msSelf
	if msSelf < a.worst[kind] {
		a.worst[kind] = msSelf
	}
}

// layer returns the total self time of layer summed over kinds.
func (a *attribution) layer(name string, kinds ...string) float64 {
	var s float64
	for _, k := range kinds {
		s += a.self[k][name]
	}
	return s
}

// attributedPct is the share of the operations' wall time that named
// layers account for.
func (a *attribution) attributedPct(kind string) float64 {
	if a.wall[kind] == 0 {
		return 0
	}
	var s float64
	for l, v := range a.self[kind] {
		if l != unattributed {
			s += v
		}
	}
	return 100 * s / a.wall[kind]
}

// attribute walks the recorded span trees whose roots are named kind
// and folds them into a, each weighed by its root's batch argument.
func (r *recorder) attribute(a *attribution, kinds ...string) {
	if r == nil {
		return
	}
	want := map[string]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int32][]int32)
	for i, s := range r.spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	var walk func(kind string, id int32, w float64)
	walk = func(kind string, id int32, w float64) {
		s := r.spans[id]
		covered := int64(0)
		for _, c := range children[id] {
			covered += r.spans[c].dur
			walk(kind, c, w)
		}
		layer := s.name
		if s.parent == noSpan {
			layer = unattributed
		}
		a.addSelf(kind, layer, w*float64(s.dur-covered)/1e6)
	}
	for i, s := range r.spans {
		if s.parent == noSpan && want[s.name] && s.dur >= 0 {
			// An operation repeated within one timed sample counts as
			// 1/batch of an operation.
			w := 1.0
			if b := s.args[batchArg]; b > 1 {
				w = 1 / float64(b)
			}
			a.wall[s.name] += w * float64(s.dur) / 1e6
			walk(s.name, int32(i), w)
		}
	}
}

// addForeign appends trace events exported by another component (the
// daemon's flight recorder), re-based onto this recorder's clock by
// shift and shown under process pid.
func (r *recorder) addForeign(events []map[string]any, pid int, shift time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range events {
		ev["pid"] = pid
		if ts, ok := ev["ts"].(float64); ok {
			ev["ts"] = ts + float64(shift)/1e3
		}
		r.foreign = append(r.foreign, ev)
	}
}

// writeChrome writes every recorded span as a Chrome trace_event
// document.
func (r *recorder) writeChrome(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]map[string]any, 0, len(r.spans)+len(r.tracks)+len(r.foreign))
	tids := make([]int, 0, len(r.tracks))
	for tid := range r.tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, map[string]any{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
			"args": map[string]string{"name": r.tracks[tid]}})
	}
	for _, s := range r.spans {
		dur := s.dur
		if dur < 0 {
			dur = 0
		}
		ev := map[string]any{"name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
			"ts": float64(s.start) / 1e3, "dur": float64(dur) / 1e3}
		if len(s.args) > 0 {
			ev["args"] = s.args
		}
		events = append(events, ev)
	}
	events = append(events, r.foreign...)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

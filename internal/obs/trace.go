// Package obs is the analysis pipeline's observability layer: span
// trees exported as Chrome trace_event JSON (viewable in Perfetto or
// chrome://tracing) and a registry of named counters and histograms
// with a stable, diffable snapshot form.
//
// The package is zero-dependency (stdlib only) and is designed around
// one invariant: a *disabled* observer costs nothing. Every method is
// safe on a nil receiver or a zero handle and compiles to a test plus
// an immediate return — no allocation, no atomic, no lock — so the
// analysis hot path can be instrumented unconditionally and pay only a
// branch-predictable check when tracing and metrics are off.
//
// There is one span model. A tree is one mutex-guarded slab of spans,
// each with an explicit parent, so the same tree serves an offline
// capture (NewTracer: a pipeline track plus one track per pool worker)
// and a daemon request (NewRequestTrace: one track, pipeline spans
// only). Core records each stage once, through whichever *Tracer it
// was handed. DESIGN.md §8 develops the span model and the overhead
// argument; §12 the request side.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Arg is one span annotation: an integer value under a short key.
type Arg struct {
	Key string
	Val int64
}

// SpanData is one recorded span of a tree.
type SpanData struct {
	Name   string
	Parent int32 // index of the parent span in the tree; -1 at the top
	Tid    int64 // the track the span is on
	Start  int64 // ns since the tree started
	Dur    int64 // ns; -1 while open
	nargs  int32
	args   [4]Arg
}

// Args returns the span's annotations.
func (sp *SpanData) Args() []Arg { return sp.args[:sp.nargs] }

// tree is one span tree: a slab of spans in recording order, so a
// parent always precedes its children. tid is the main track, the one
// spans begun through a Tracer or a Span's Begin land on, named prefix
// + name on export (joined there, so a request pays no concatenation);
// workers reports whether spans begun on pool workers are recorded (on
// track w+1 for worker w).
type tree struct {
	start        time.Time
	tid          int64
	prefix, name string
	workers      bool

	mu    sync.Mutex
	spans []SpanData
}

func (t *tree) begin(parent int32, tid int64, name string) Span {
	now := int64(time.Since(t.start))
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, SpanData{Name: name, Parent: parent, Tid: tid, Start: now, Dur: -1})
	t.mu.Unlock()
	return Span{t: t, idx: idx}
}

// Tracer is a position in a span tree: spans begun through it go on the
// tree's main track, under the position's parent. NewTracer makes a
// fresh tree, positioned at its top; Span.Tracer positions one under a
// caller's span. A nil *Tracer is a valid, disabled tracer: every
// method no-ops.
type Tracer struct {
	t      *tree
	parent int32
}

// NewTracer returns an enabled tracer over a fresh tree whose
// timestamps are relative to the call. The tree's main track is the
// pipeline track (tid 0); pool workers record on tracks tid w+1.
func NewTracer() *Tracer {
	return &Tracer{t: &tree{start: time.Now(), name: "pipeline", workers: true}, parent: -1}
}

// Begin opens a span named name at the tracer's position.
func (tr *Tracer) Begin(name string) Span {
	if tr == nil {
		return Span{}
	}
	return tr.t.begin(tr.parent, tr.t.tid, name)
}

// Spans returns a copy of the whole tree's span slab (index order =
// recording order; parents precede children). Spans may still be
// appended concurrently, so callers get a snapshot.
func (tr *Tracer) Spans() []SpanData {
	if tr == nil {
		return nil
	}
	tr.t.mu.Lock()
	defer tr.t.mu.Unlock()
	return append([]SpanData(nil), tr.t.spans...)
}

// NumEvents returns the number of spans recorded in the tree.
func (tr *Tracer) NumEvents() int {
	if tr == nil {
		return 0
	}
	tr.t.mu.Lock()
	defer tr.t.mu.Unlock()
	return len(tr.t.spans)
}

// Span is the handle of one span. It is a value; the zero Span (begun
// on a nil tracer) no-ops.
type Span struct {
	t   *tree
	idx int32
}

// Begin opens a child of s named name on the tree's main track.
func (s Span) Begin(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.begin(s.idx, s.t.tid, name)
}

// Worker opens a child of s named name on pool worker w's track. A
// tree without worker tracks (a request's) records nothing.
func (s Span) Worker(w int, name string) Span {
	if s.t == nil || !s.t.workers {
		return Span{}
	}
	return s.t.begin(s.idx, int64(w)+1, name)
}

// Tracer returns a tracer positioned under s: spans begun through it
// are children of s. nil for the zero Span.
func (s Span) Tracer() *Tracer {
	if s.t == nil {
		return nil
	}
	return &Tracer{t: s.t, parent: s.idx}
}

// Arg annotates the span with an integer value (at most four per span;
// extras are dropped). Safe before or after End.
func (s Span) Arg(key string, val int64) Span {
	if s.t == nil {
		return s
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	if int(sp.nargs) < len(sp.args) {
		sp.args[sp.nargs] = Arg{Key: key, Val: val}
		sp.nargs++
	}
	s.t.mu.Unlock()
	return s
}

// End closes the span, fixing its duration.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := int64(time.Since(s.t.start))
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	sp.Dur = now - sp.Start
	s.t.mu.Unlock()
}

// WriteTrace writes the tracer's whole tree as a Chrome trace_event
// JSON document (see WriteTraces).
func (tr *Tracer) WriteTrace(w io.Writer) error {
	if tr == nil {
		return nil
	}
	return WriteTraces(w, tr)
}

// WriteTraceFile writes the tree to path (see WriteTrace).
func (tr *Tracer) WriteTraceFile(path string) error {
	if tr == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteTraces renders the trees of trs as one Chrome trace_event JSON
// document ({"traceEvents": [...]}), the format Perfetto and
// chrome://tracing load directly. Tracks are listed in tid order and
// the spans of a track in recording order, with timestamps relative to
// the earliest tree's start, so concurrent trees align on one timeline
// and the document is deterministic given a deterministic pipeline
// (timestamps and durations aside). Every span carries its parent's
// index within its tree under the "parent" arg (-1 at the top). Open
// spans are emitted with zero duration.
func WriteTraces(w io.Writer, trs ...*Tracer) error {
	type track struct {
		tid   int64
		name  string
		off   int64 // the tree's start, ns after the earliest
		spans []SpanData
	}
	var base time.Time
	for _, tr := range trs {
		if base.IsZero() || tr.t.start.Before(base) {
			base = tr.t.start
		}
	}
	var tracks []*track
	for _, tr := range trs {
		off := tr.t.start.Sub(base).Nanoseconds()
		byTid := map[int64]*track{}
		for _, sp := range tr.Spans() {
			tk := byTid[sp.Tid]
			if tk == nil {
				name := tr.t.prefix + tr.t.name
				if sp.Tid != tr.t.tid {
					name = fmt.Sprintf("worker %d", sp.Tid-1)
				}
				tk = &track{tid: sp.Tid, name: name, off: off}
				byTid[sp.Tid] = tk
				tracks = append(tracks, tk)
			}
			tk.spans = append(tk.spans, sp)
		}
	}
	sort.SliceStable(tracks, func(i, j int) bool { return tracks[i].tid < tracks[j].tid })

	// Metadata args are strings, span args are ints; rather than a
	// union type, emit everything through raw maps.
	type rawEvent map[string]any
	events := make([]rawEvent, 0, len(tracks))
	for _, tk := range tracks {
		events = append(events, rawEvent{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": tk.tid,
			"args": map[string]string{"name": tk.name},
		})
	}
	for _, tk := range tracks {
		for i := range tk.spans {
			sp := &tk.spans[i]
			args := make(map[string]int64, sp.nargs+1)
			args["parent"] = int64(sp.Parent)
			for _, a := range sp.Args() {
				args[a.Key] = a.Val
			}
			events = append(events, rawEvent{
				"name": sp.Name, "ph": "X", "pid": 1, "tid": tk.tid,
				"ts":   float64(tk.off+sp.Start) / 1e3,
				"dur":  float64(max(sp.Dur, 0)) / 1e3,
				"args": args,
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

package obs

// Request-scoped tracing for the serving path. A daemon needs one span
// tree per *request*, alive only for the request's duration, cheap
// enough to record unconditionally, and retained after completion so
// an operator can ask "what did the last N requests do" without having
// arranged a capture in advance.
//
// Two pieces cooperate:
//
//   - RequestTrace: one request's identity and outcome around its span
//     tree — the same tree type an offline capture uses (trace.go), with
//     one track. Spans carry an explicit parent, so the tree survives
//     goroutine hops (handler → compute goroutine); spans begun on pool
//     workers are not recorded, so a request tree stays at tens of spans.
//   - FlightRecorder: a bounded lock-free ring of completed request
//     traces — the "black box". Recording is one atomic increment and
//     one atomic pointer store; the ring overwrites oldest-first and
//     never allocates after construction.
//
// Everything is nil-safe: a nil *RequestTrace or *FlightRecorder
// no-ops at the cost of a branch-predictable nil check, so the serving
// hot path is instrumented unconditionally and the disabled
// configuration allocates nothing (TestNilRequestObserverZeroAlloc).

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// RequestTrace is one request: its identity and outcome, and its span
// tree. It is created by the server's route wrapper when the flight
// recorder or the slow-query log is enabled, travels through the
// request's context, and is recorded into the flight recorder when the
// request completes. The tree's one track has the request ID as its
// tid, and its root span (index 0), named after the route, is open
// until Finish. All methods are safe on a nil receiver and no-op
// without allocating.
type RequestTrace struct {
	// ID is the daemon-assigned request sequence number; Route the
	// endpoint name the request hit. Immutable after creation.
	ID    uint64
	Route string

	t     tree   // its mutex also guards the three fields below
	under Tracer // positioned under the root span

	program   string
	optionKey string
	status    int
}

// NewRequestTrace starts a request trace whose root span is named
// route.
func NewRequestTrace(id uint64, route string) *RequestTrace {
	rt := &RequestTrace{ID: id, Route: route,
		t: tree{start: time.Now(), tid: int64(id), prefix: "req ", name: route}}
	rt.t.spans = make([]SpanData, 1, 8)
	rt.t.spans[0] = SpanData{Name: route, Parent: -1, Tid: rt.t.tid, Dur: -1}
	rt.under = Tracer{t: &rt.t, parent: 0}
	return rt
}

// Tracer returns the request's tree positioned under its root span:
// spans begun through it are the root's children. nil on a nil trace.
func (rt *RequestTrace) Tracer() *Tracer {
	if rt == nil {
		return nil
	}
	return &rt.under
}

// SetContext attaches the program identity and option key the request
// resolved to — the slow-query log's correlation fields.
func (rt *RequestTrace) SetContext(program, optionKey string) {
	if rt == nil {
		return
	}
	rt.t.mu.Lock()
	rt.program, rt.optionKey = program, optionKey
	rt.t.mu.Unlock()
}

// Finish closes the root span and records the response status.
func (rt *RequestTrace) Finish(status int) {
	if rt == nil {
		return
	}
	now := int64(time.Since(rt.t.start))
	rt.t.mu.Lock()
	rt.status = status
	rt.t.spans[0].Dur = now
	rt.t.mu.Unlock()
}

// Duration returns the root span's duration (elapsed-so-far while the
// request is still in flight; 0 on nil).
func (rt *RequestTrace) Duration() time.Duration {
	if rt == nil {
		return 0
	}
	rt.t.mu.Lock()
	d := rt.t.spans[0].Dur
	rt.t.mu.Unlock()
	if d < 0 {
		return time.Since(rt.t.start)
	}
	return time.Duration(d)
}

// Program and OptionKey return the SetContext annotations; Status the
// response status Finish recorded.
func (rt *RequestTrace) Program() string {
	if rt == nil {
		return ""
	}
	rt.t.mu.Lock()
	defer rt.t.mu.Unlock()
	return rt.program
}

func (rt *RequestTrace) OptionKey() string {
	if rt == nil {
		return ""
	}
	rt.t.mu.Lock()
	defer rt.t.mu.Unlock()
	return rt.optionKey
}

func (rt *RequestTrace) Status() int {
	if rt == nil {
		return 0
	}
	rt.t.mu.Lock()
	defer rt.t.mu.Unlock()
	return rt.status
}

// request traces in contexts -----------------------------------------------

type rtCtxKey struct{}

// ContextWithTrace returns ctx carrying rt; handlers and the analysis
// layer retrieve it with TraceFrom. When rt is nil, ctx is returned
// unchanged (no allocation on the disabled path).
func ContextWithTrace(ctx context.Context, rt *RequestTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, rtCtxKey{}, rt)
}

// TraceFrom returns the request trace ctx carries, or nil.
func TraceFrom(ctx context.Context) *RequestTrace {
	rt, _ := ctx.Value(rtCtxKey{}).(*RequestTrace)
	return rt
}

// flight recorder -----------------------------------------------------------

// FlightRecorder is a bounded lock-free ring of completed request
// traces. Record claims a slot with one atomic increment and publishes
// the trace with one atomic store; once every slot has been written
// the ring overwrites oldest-first. Memory is bounded by slots × the
// size of a trace (tens of spans ≈ a few KB), independent of uptime —
// see DESIGN.md §12 for the budget.
//
// A nil *FlightRecorder is the disabled recorder: Record no-ops and
// Last returns nothing.
type FlightRecorder struct {
	slots []atomic.Pointer[RequestTrace]
	seq   atomic.Uint64
}

// NewFlightRecorder returns a recorder retaining the last `slots`
// request traces (minimum 1).
func NewFlightRecorder(slots int) *FlightRecorder {
	if slots < 1 {
		slots = 1
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[RequestTrace], slots)}
}

// Record retains rt, evicting the oldest retained trace when full.
func (f *FlightRecorder) Record(rt *RequestTrace) {
	if f == nil || rt == nil {
		return
	}
	idx := f.seq.Add(1) - 1
	f.slots[idx%uint64(len(f.slots))].Store(rt)
}

// Cap returns the ring capacity (0 on nil).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Recorded returns the total number of traces ever recorded.
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Last returns up to n retained traces in ascending request-ID order
// (n <= 0 means all). Concurrent Records may overwrite slots while the
// snapshot is taken; each slot read is atomic, so the result is always
// a set of valid traces, merely not a perfectly instantaneous cut.
func (f *FlightRecorder) Last(n int) []*RequestTrace {
	if f == nil {
		return nil
	}
	out := make([]*RequestTrace, 0, len(f.slots))
	for i := range f.slots {
		if rt := f.slots[i].Load(); rt != nil {
			out = append(out, rt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

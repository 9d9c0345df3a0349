package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestRequestTraceTree(t *testing.T) {
	rt := NewRequestTrace(7, "/v1/liveness")
	tr := rt.Tracer()
	tr.Begin("cache miss").End()
	an := tr.Begin("analyze")
	an.Begin("phase1").Arg("waves", 3).End()
	an.Worker(0, "cfg").End() // a request tree has no worker tracks
	an.End()
	rt.SetContext("prog-abc", "opts-default")
	rt.Finish(200)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Name != "/v1/liveness" || spans[0].Parent != -1 {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[0].Dur < 0 {
		t.Error("root still open after Finish")
	}
	for _, sp := range spans {
		if sp.Tid != 7 {
			t.Errorf("span %s on track %d, want the request's 7", sp.Name, sp.Tid)
		}
	}
	// phase1 is a child of analyze, which is a child of the root.
	if spans[3].Name != "phase1" || spans[3].Parent != 2 {
		t.Errorf("phase1 span = %+v", spans[3])
	}
	if spans[2].Name != "analyze" || spans[2].Parent != 0 {
		t.Errorf("analyze span = %+v", spans[2])
	}
	if got := spans[3].Args(); len(got) != 1 || got[0].Key != "waves" || got[0].Val != 3 {
		t.Errorf("phase1 args = %v", got)
	}
	if rt.Program() != "prog-abc" || rt.OptionKey() != "opts-default" || rt.Status() != 200 {
		t.Errorf("context = %q %q %d", rt.Program(), rt.OptionKey(), rt.Status())
	}
	if rt.Duration() <= 0 {
		t.Errorf("duration = %v", rt.Duration())
	}
}

func TestRequestTraceConcurrentSpans(t *testing.T) {
	rt := NewRequestTrace(1, "/v1/batch")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rt.Tracer().Begin("work").Arg("i", int64(i)).End()
			}
		}()
	}
	wg.Wait()
	rt.Finish(200)
	if got := len(rt.Tracer().Spans()); got != 1+8*100 {
		t.Errorf("got %d spans, want %d", got, 1+8*100)
	}
}

func TestContextWithTrace(t *testing.T) {
	ctx := context.Background()
	if got := TraceFrom(ctx); got != nil {
		t.Errorf("empty context carries trace %v", got)
	}
	// nil trace leaves the context untouched — the disabled path must
	// not allocate a context wrapper.
	if got := ContextWithTrace(ctx, nil); got != ctx {
		t.Error("ContextWithTrace(nil) wrapped the context")
	}
	rt := NewRequestTrace(1, "r")
	if got := TraceFrom(ContextWithTrace(ctx, rt)); got != rt {
		t.Error("trace did not round-trip through the context")
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	if f.Cap() != 4 {
		t.Fatalf("cap = %d", f.Cap())
	}
	for i := 1; i <= 6; i++ {
		rt := NewRequestTrace(uint64(i), "r")
		rt.Finish(200)
		f.Record(rt)
	}
	if f.Recorded() != 6 {
		t.Errorf("recorded = %d, want 6", f.Recorded())
	}
	// Six records into four slots: 1 and 2 were overwritten.
	got := f.Last(0)
	if len(got) != 4 {
		t.Fatalf("retained %d traces, want 4", len(got))
	}
	for i, rt := range got {
		if want := uint64(i + 3); rt.ID != want {
			t.Errorf("retained[%d].ID = %d, want %d", i, rt.ID, want)
		}
	}
	if got := f.Last(2); len(got) != 2 || got[0].ID != 5 || got[1].ID != 6 {
		t.Errorf("Last(2) = %v", got)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt := NewRequestTrace(uint64(g*1000+i), "r")
				rt.Finish(200)
				f.Record(rt)
				f.Last(4)
			}
		}(g)
	}
	wg.Wait()
	if f.Recorded() != 8*200 {
		t.Errorf("recorded = %d, want %d", f.Recorded(), 8*200)
	}
	for _, rt := range f.Last(0) {
		if rt == nil {
			t.Fatal("nil trace retained")
		}
	}
}

// TestWriteRequestTraces writes request trees the way /debug/trace
// does, request trees only: one track per request named after its
// route, the root first on each track, a parent arg on every span, an
// in-flight request's open root at zero duration, and timestamps on one
// timeline that starts at the earliest request.
func TestWriteRequestTraces(t *testing.T) {
	rt := NewRequestTrace(3, "/v1/liveness")
	rt.Tracer().Begin("analyze").Arg("routines", 2).End()
	rt.Finish(200)
	time.Sleep(time.Millisecond)
	rt2 := NewRequestTrace(4, "/v1/summary") // still in flight
	rt2.Tracer().Begin("cache hit").End()

	var buf bytes.Buffer
	if err := WriteTraces(&buf, rt.Tracer(), rt2.Tracer()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  uint64         `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	var got []string
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			got = append(got, fmt.Sprintf("M %d %v", ev.Tid, ev.Args["name"]))
		case "X":
			got = append(got, fmt.Sprintf("X %d %s parent=%v", ev.Tid, ev.Name, ev.Args["parent"]))
			switch ev.Name {
			case "analyze":
				if ev.Args["routines"] != float64(2) {
					t.Errorf("analyze routines arg = %v", ev.Args["routines"])
				}
			case "/v1/liveness":
				if ev.Ts != 0 {
					t.Errorf("earliest request's root at ts %v, want 0", ev.Ts)
				}
			case "/v1/summary":
				if ev.Ts < 1000 {
					t.Errorf("later request's root at ts %vµs, want >= 1000", ev.Ts)
				}
				if ev.Dur != 0 {
					t.Errorf("open root dur = %v, want 0", ev.Dur)
				}
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	want := []string{
		"M 3 req /v1/liveness",
		"M 4 req /v1/summary",
		"X 3 /v1/liveness parent=-1",
		"X 3 analyze parent=0",
		"X 4 /v1/summary parent=-1",
		"X 4 cache hit parent=0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace events:\n got %q\nwant %q", got, want)
	}
}

// The disabled serving path passes nil traces and recorders through the
// same call sites the enabled path uses; none of it may allocate.
func TestNilRequestObserverZeroAlloc(t *testing.T) {
	var rt *RequestTrace
	var f *FlightRecorder
	var w *RollingWindow
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		rt.Tracer().Begin("x").Arg("k", 1).End()
		rt.SetContext("p", "o")
		rt.Finish(200)
		_ = rt.Duration()
		if ContextWithTrace(ctx, rt) != ctx {
			t.Fatal("nil trace wrapped the context")
		}
		_ = TraceFrom(ctx)
		f.Record(rt)
		_ = f.Last(1)
		w.Observe(5)
		_ = w.Quantile(0.99)
	})
	if allocs != 0 {
		t.Errorf("disabled request observer allocates %.0f times per run, want 0", allocs)
	}
}

func TestRequestTraceOpenSpanDuration(t *testing.T) {
	rt := NewRequestTrace(1, "r")
	time.Sleep(time.Millisecond)
	if rt.Duration() <= 0 {
		t.Error("in-flight duration not positive")
	}
	sp := rt.Tracer().Spans()
	if sp[0].Dur != -1 {
		t.Errorf("open root Dur = %d, want -1", sp[0].Dur)
	}
}

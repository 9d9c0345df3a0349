package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/prog"
	"repro/internal/serve"
)

// daemon is an in-process serve.Server on a loopback listener, reached
// over HTTP through at most two client connections.
type daemon struct {
	base   string
	hc     *http.Client
	cancel context.CancelFunc
	done   chan error
}

// flightSlots sizes the flight recorder of a traced daemon: it must
// retain every request of a timed window.
const flightSlots = 1 << 15

// startDaemon starts a daemon with a program cache of maxPrograms
// entries (0: the daemon's default), and with its flight recorder on
// when traced.
func startDaemon(maxPrograms int, traced bool) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conf := serve.Config{MaxPrograms: maxPrograms}
	if traced {
		conf.FlightRecorder = flightSlots
	}
	s := serve.New(conf)
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		base:   "http://" + ln.Addr().String(),
		cancel: cancel,
		done:   make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
		}},
	}
	go func() { d.done <- s.Serve(ctx, ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for it to exit.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	d.cancel()
	return <-d.done
}

// statusError is a reply with a status other than 200.
type statusError struct {
	route string
	code  int
	body  []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: status %d: %s", e.route, e.code, bytes.TrimSpace(e.body))
}

// post sends a JSON body and returns the response body; a non-200
// status is a *statusError.
func (d *daemon) post(route string, body []byte) ([]byte, error) {
	resp, err := d.hc.Post(d.base+route, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, &statusError{route, resp.StatusCode, data}
	}
	return data, nil
}

func (d *daemon) call(route string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	data, err := d.post(route, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, resp)
}

func (d *daemon) get(route string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + route)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d", route, resp.StatusCode)
	}
	return data, err
}

// load uploads an SXE image and returns the program's ID.
func (d *daemon) load(img []byte) (string, error) {
	var resp api.LoadResponse
	if err := d.call("/v1/programs", api.LoadRequest{SXE: img}, &resp); err != nil {
		return "", err
	}
	return resp.Program.ID, nil
}

// counters reads the daemon's /metrics counters.
func (d *daemon) counters() (map[string]uint64, error) {
	data, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	var m api.MetricsResponse
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, c := range m.Metrics.Counters {
		out[c.Name] = c.Value
	}
	return out, nil
}

// recorded is the number of requests the flight recorder has retained
// so far.
func (d *daemon) recorded() (int, error) {
	data, err := d.get("/debug/trace?format=info")
	if err != nil {
		return 0, err
	}
	var info api.TraceInfoResponse
	if err := json.Unmarshal(data, &info); err != nil {
		return 0, err
	}
	return int(info.Recorded), nil
}

// reqTrace is one request's span tree from the flight recorder; spans
// are in recording order, spans[0] the route root.
type reqTrace struct {
	route string
	spans []reqSpan
}

type reqSpan struct {
	name   string
	parent int64
	dur    float64 // µs
}

// self returns the root's duration minus its direct children, and the
// summed duration of the children named in names.
func (t *reqTrace) self(names ...string) (self, named float64) {
	self = t.spans[0].dur
	for _, s := range t.spans[1:] {
		if s.parent != 0 {
			continue
		}
		self -= s.dur
		for _, n := range names {
			if s.name == n {
				named += s.dur
			}
		}
	}
	return self / 1e3, named / 1e3
}

func (t *reqTrace) child(name string) (float64, bool) {
	for _, s := range t.spans[1:] {
		if s.parent == 0 && s.name == name {
			return s.dur / 1e3, true
		}
	}
	return 0, false
}

// flight fetches the span trees of every request completed after the
// recorder reported holding since requests, waiting until it holds at
// least want. It also returns the raw trace events for the Chrome
// trace. Requests outside the window (metrics scrapes, these polls)
// come back too; callers filter by route.
func (d *daemon) flight(since, want int) ([]*reqTrace, []map[string]any, error) {
	var got int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var err error
		if got, err = d.recorded(); err != nil {
			return nil, nil, err
		}
		if got >= want {
			break
		}
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("flight recorder holds %d requests, want %d", got, want)
		}
	}
	data, err := d.get(fmt.Sprintf("/debug/trace?last=%d", got-since))
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, err
	}
	byID := map[int64]*reqTrace{}
	var order []*reqTrace
	for _, ev := range doc.TraceEvents {
		tid := int64(ev["tid"].(float64))
		t := byID[tid]
		if t == nil {
			t = &reqTrace{}
			byID[tid] = t
			order = append(order, t)
		}
		args, _ := ev["args"].(map[string]any)
		switch ev["ph"] {
		case "M":
			name, _ := args["name"].(string)
			t.route = strings.TrimPrefix(name, "req ")
		case "X":
			parent, _ := args["parent"].(float64)
			dur, _ := ev["dur"].(float64)
			name, _ := ev["name"].(string)
			t.spans = append(t.spans, reqSpan{name: name, parent: int64(parent), dur: dur})
		}
	}
	out := order[:0]
	for _, t := range order {
		if len(t.spans) > 0 {
			out = append(out, t)
		}
	}
	return out, doc.TraceEvents, nil
}

// routineBody renders routine ri of p as the single-routine assembly a
// patch request carries. Call targets print by name, so the other
// routines appear as empty stubs.
func routineBody(p *prog.Program, ri int) string {
	shell := &prog.Program{Routines: make([]*prog.Routine, len(p.Routines))}
	for i, r := range p.Routines {
		shell.Routines[i] = &prog.Routine{Name: r.Name}
	}
	shell.Routines[ri] = p.Routines[ri]
	text := prog.Disassemble(shell)
	head := ".routine " + p.Routines[ri].Name + "\n"
	i := strings.Index(text, head)
	if i < 0 {
		return ""
	}
	body := text[i+len(head):]
	if j := strings.Index(body, "\n.routine "); j >= 0 {
		body = body[:j+1]
	}
	return body
}

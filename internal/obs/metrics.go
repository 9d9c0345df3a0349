package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
)

// Metrics is a registry of named counters and histograms. A nil
// *Metrics is a valid, disabled registry: lookups return nil
// instruments whose methods no-op.
//
// Instruments are registered under a mutex but updated with atomics,
// so hot loops either pre-resolve instruments once and Add deltas, or
// accumulate in locals and flush once per unit of work (the phase
// solvers flush once per component).
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewMetrics returns an enabled, empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the stable counter registered under name, creating
// it on first use. Stable counters must be deterministic for a given
// input and parallelism-invariant; they participate in
// Snapshot.Stable() and the determinism tests. Returns nil when m is
// nil.
func (m *Metrics) Counter(name string) *Counter { return m.counter(name, false, false) }

// UnstableCounter is Counter for quantities that legitimately vary
// across runs or worker counts (sync.Pool hits, scheduling artifacts).
// Unstable counters are reported but excluded from Snapshot.Stable().
// If the same name was first registered with the other stability
// class, the first registration wins.
func (m *Metrics) UnstableCounter(name string) *Counter { return m.counter(name, true, false) }

// Gauge is Counter for instantaneous values (inflight requests, cache
// sizes, window quantiles) that are Stored or moved up and down rather
// than accumulated. Gauges are unstable by definition — they reflect a
// moment, not a deterministic total — so they are excluded from
// Snapshot.Stable(), and the Prometheus exposition types them `gauge`.
func (m *Metrics) Gauge(name string) *Counter { return m.counter(name, true, true) }

func (m *Metrics) counter(name string, unstable, gauge bool) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{name: name, unstable: unstable, gauge: gauge}
		m.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it
// on first use. Returns nil when m is nil.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.histograms[name]
	if !ok {
		h = &Histogram{name: name, min: math.MaxUint64}
		m.histograms[name] = h
	}
	return h
}

// Counter is a named atomic uint64. A nil *Counter no-ops.
type Counter struct {
	name     string
	unstable bool
	gauge    bool
	v        atomic.Uint64
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Store sets the counter to v; used for gauges (sizes, byte totals)
// that are measured rather than accumulated.
func (c *Counter) Store(v uint64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Sub subtracts n from the counter. Only meaningful on gauges (a
// monotone counter must never go down); pairs with Add to track
// level-style quantities such as inflight requests.
func (c *Counter) Sub(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(^(n - 1))
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram accumulates a distribution of uint64 observations in
// power-of-two buckets (bucket k counts values whose bit length is k,
// i.e. the range [2^(k-1), 2^k-1]; bucket 0 counts zeros), plus exact
// sum/min/max. The count is the bucket total. A nil *Histogram no-ops.
type Histogram struct {
	name    string
	sum     atomic.Uint64
	min     uint64 // min, max guarded by mmu
	max     uint64
	mmu     sync.Mutex
	buckets [65]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	h.mmu.Lock()
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mmu.Unlock()
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name     string `json:"name"`
	Value    uint64 `json:"value"`
	Unstable bool   `json:"unstable,omitempty"`
	Gauge    bool   `json:"gauge,omitempty"`
}

// Bucket is one populated histogram bucket: Count observations with
// value ≤ Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observation (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, sorted by name so
// two snapshots of equal state marshal to identical JSON. The zero
// Snapshot is an empty registry.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures all instruments. Safe on nil (returns the empty
// snapshot) and concurrently with updates (each instrument is read
// atomically, the set of instruments under the registry mutex).
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	if m == nil {
		return s
	}
	m.mu.Lock()
	counters := make([]*Counter, 0, len(m.counters))
	for _, c := range m.counters {
		counters = append(counters, c)
	}
	histograms := make([]*Histogram, 0, len(m.histograms))
	for _, h := range m.histograms {
		histograms = append(histograms, h)
	}
	m.mu.Unlock()

	// Histograms load before counters, and each histogram's Count is the
	// sum of the buckets loaded with it. Callers bump a request counter
	// before observing its latency, so a concurrent scrape then never
	// shows a histogram ahead of its counter, and the cumulative
	// Prometheus buckets always end at Count.
	for _, h := range histograms {
		hv := HistogramValue{Name: h.name, Sum: h.sum.Load()}
		for k := range h.buckets {
			n := h.buckets[k].Load()
			if n == 0 {
				continue
			}
			le := ^uint64(0)
			if k < 64 {
				le = (uint64(1) << uint(k)) - 1
			}
			hv.Buckets = append(hv.Buckets, Bucket{Le: le, Count: n})
			hv.Count += n
		}
		h.mmu.Lock()
		hv.Min, hv.Max = h.min, h.max
		h.mmu.Unlock()
		if hv.Count == 0 {
			hv.Min = 0
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })

	for _, c := range counters {
		s.Counters = append(s.Counters, CounterValue{
			Name: c.name, Value: c.v.Load(), Unstable: c.unstable, Gauge: c.gauge,
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	return s
}

// Stable returns the snapshot with unstable counters removed: the part
// that must be byte-identical across runs and parallelism levels.
func (s Snapshot) Stable() Snapshot {
	out := Snapshot{Histograms: s.Histograms}
	for _, c := range s.Counters {
		if !c.Unstable {
			out.Counters = append(out.Counters, c)
		}
	}
	return out
}

// WriteText renders the snapshot as an aligned text table.
func (s Snapshot) WriteText(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	if len(s.Counters) > 0 {
		fmt.Fprintf(tw, "counter\tvalue\t\n")
		for _, c := range s.Counters {
			note := ""
			if c.Unstable {
				note = "(unstable)"
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\n", c.Name, c.Value, note)
		}
	}
	if len(s.Histograms) > 0 {
		if len(s.Counters) > 0 {
			fmt.Fprintf(tw, "\t\t\n")
		}
		fmt.Fprintf(tw, "histogram\tcount\tsum\tmean\tmin\tmax\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\n",
				h.Name, h.Count, h.Sum, h.Mean(), h.Min, h.Max)
		}
	}
	tw.Flush()
}

// ReportCounters publishes the named counters from m into a benchmark
// record, one metric per counter under the unit "<name>/run" (a name
// missing from the registry reports 0). cmd/benchjson routes
// "/run"-suffixed units into the "counters" section of
// BENCH_phases.json, where benchdelta diffs them like any other
// metric. b is the *testing.B of the calling benchmark, accepted as an
// interface so this package stays free of a testing import.
func ReportCounters(b interface{ ReportMetric(float64, string) }, m *Metrics, names ...string) {
	if m == nil {
		return
	}
	vals := make(map[string]uint64)
	for _, c := range m.Snapshot().Counters {
		vals[c.Name] = c.Value
	}
	for _, n := range names {
		b.ReportMetric(float64(vals[n]), n+"/run")
	}
}

// Pool wraps a sync.Pool with hit/miss telemetry. Gets counts every
// Get; News counts the Gets that missed and ran the constructor. Both
// are inherently unstable (pool retention depends on GC timing and on
// unrelated work in the same process), so consumers should publish
// them through UnstableCounter.
type Pool struct {
	p    sync.Pool
	gets atomic.Uint64
	news atomic.Uint64
}

// NewPool returns a pool whose misses are filled by newFn.
func NewPool(newFn func() any) *Pool {
	pl := &Pool{}
	pl.p.New = func() any {
		pl.news.Add(1)
		return newFn()
	}
	return pl
}

// Get fetches an item, constructing one on a pool miss.
func (p *Pool) Get() any {
	p.gets.Add(1)
	return p.p.Get()
}

// Put returns an item to the pool.
func (p *Pool) Put(x any) { p.p.Put(x) }

// Stats returns the cumulative Get count and miss (constructor) count.
func (p *Pool) Stats() (gets, news uint64) {
	return p.gets.Load(), p.news.Load()
}

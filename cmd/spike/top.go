package main

// spike top: the live operator view of a running daemon. It polls
// GET /metrics on an interval and renders a one-screen table — per
// route: request count, qps over the last interval, and the p50/p99
// latency gauges the daemon computes from its rolling windows — plus a
// header line with the inflight gauge, the analysis-cache hit ratio,
// evictions, slow queries and encode errors. With -plain it prints one
// table per refresh instead of redrawing the screen, which is what the
// tests (and piping to a file) want.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/api"
)

func topMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		addr     = fs.String("addr", "localhost:8723", "daemon `address` (host:port or full URL)")
		interval = fs.Duration("interval", 2*time.Second, "poll `interval`")
		count    = fs.Int("n", 0, "exit after `count` refreshes (0 = until interrupted)")
		plain    = fs.Bool("plain", false, "append one table per refresh instead of redrawing the screen")
	)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return runTop(base, *interval, *count, *plain, stdout)
}

// runTop is the poll/render loop, split from flag parsing so tests can
// drive it against an httptest daemon with n=1.
func runTop(base string, interval time.Duration, n int, plain bool, w io.Writer) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	var prev *topSample
	for i := 0; n <= 0 || i < n; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur, err := fetchTopSample(hc, base)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		if !plain {
			// Home the cursor and clear: a stable full-screen redraw.
			fmt.Fprint(w, "\x1b[H\x1b[2J")
		}
		io.WriteString(w, renderTop(prev, cur, base))
		prev = cur
	}
	return nil
}

// topSample is one /metrics scrape flattened to name → value; gauges
// and counters share the namespace, so one map carries both.
type topSample struct {
	at       time.Time
	counters map[string]uint64
}

func fetchTopSample(hc *http.Client, base string) (*topSample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var m api.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	s := &topSample{at: time.Now(), counters: make(map[string]uint64, len(m.Metrics.Counters))}
	for _, cv := range m.Metrics.Counters {
		s.counters[cv.Name] = cv.Value
	}
	return s, nil
}

// renderTop formats one refresh. prev may be nil (first sample: no qps
// yet). Pure over its inputs, so the table is unit-testable without a
// daemon.
func renderTop(prev, cur *topSample, base string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "spike top — %s — %s\n", base, cur.at.Format("15:04:05"))

	hits := cur.counters["serve/analysis_cache_hits"]
	misses := cur.counters["serve/analysis_cache_misses"]
	ratio := "-"
	if hits+misses > 0 {
		ratio = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
	}
	fmt.Fprintf(&b, "inflight %d   cache hit %s (%d/%d)   evictions %d   slow %d   encode errors %d\n\n",
		cur.counters["serve/inflight"], ratio, hits, hits+misses,
		cur.counters["serve/analysis_cache_evictions"],
		cur.counters["serve/slow_queries"],
		cur.counters["serve/errors/encode"])

	type row struct {
		route string
		reqs  uint64
		qps   string
		p50   uint64
		p99   uint64
	}
	var rows []row
	for name, v := range cur.counters {
		route, ok := strings.CutPrefix(name, "serve/requests/")
		if !ok {
			continue
		}
		r := row{route: route, reqs: v, qps: "-",
			p50: cur.counters["serve/p50_us/"+route],
			p99: cur.counters["serve/p99_us/"+route]}
		if prev != nil {
			if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
				r.qps = fmt.Sprintf("%.1f", float64(v-prev.counters[name])/dt)
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].reqs != rows[j].reqs {
			return rows[i].reqs > rows[j].reqs
		}
		return rows[i].route < rows[j].route
	})
	tw := tabwriter.NewWriter(&b, 2, 0, 3, ' ', 0)
	fmt.Fprintln(tw, "ROUTE\tREQS\tQPS\tP50(us)\tP99(us)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\n", r.route, r.reqs, r.qps, r.p50, r.p99)
	}
	tw.Flush()
	return b.String()
}

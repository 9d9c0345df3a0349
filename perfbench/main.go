// Command perfbench is the repository's benchmark: one command that
// times analyze, restore, optimize, patch and served queries through
// the public packages (sxe, core, snapshot, opt, emu) and the serve
// daemon over loopback HTTP, checks every output, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics — by
// name. See README.md for the phases, workloads and metric
// definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config holds the input sizes and rates; defaultConfig is what the
// benchmark measures, tests shrink it.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string

	setups int // set-ups per phase; setup_s is their median

	// table2: analyze and restore run on the 16 Table 2 profiles at
	// table2Scale; optimize runs on the §1 protocol's inputs at
	// optScale, pre-optimized with opt.CompilerOptions().
	table2Scale float64
	optScale    float64

	// serve-read: an open loop at readRate requests/s over the
	// readProfiles at readScale.
	readProfiles []string
	readScale    float64
	readRate     float64

	// serve-edit: one editor client owning editPrograms editProfile
	// programs at editScale, so that a run's medians average over
	// several programs' structure. The chains must fit the daemon's
	// program cache with room for the versions added between two edits
	// of one chain.
	editProfile  string
	editScale    float64
	editPrograms int

	// minQueries lengthens serve-read's schedule so the p99 has ten
	// samples beyond it.
	minQueries int

	// maxPrograms is the daemons' program cache capacity; 0 keeps
	// serve.DefaultMaxPrograms. Tests shrink it to force evictions.
	maxPrograms int
}

const (
	emuMaxSteps = 2_000_000_000

	// Every coldEvery-th serve-edit iteration uploads a never-seen
	// program instead of editing: a window of minPatches patches then
	// holds about 28 cold loads, above minCold, while cold loads take
	// about an eighth of the client's time.
	coldEvery = 8
	// serve-edit keeps editing, up to three times its time share, until
	// the p95 and the cold p50 have ten samples beyond them.
	minPatches = 200
	minCold    = 20
)

func defaultConfig() config {
	return config{
		setups:       3,
		table2Scale:  0.5,
		optScale:     0.1,
		readProfiles: []string{"gcc", "sqlservr", "vc", "winword"},
		readScale:    0.1,
		readRate:     600,
		editProfile:  "vc",
		editScale:    0.1,
		editPrograms: 6,
		minQueries:   1000,
	}
}

// workloads maps each --workload to the program sizes its phases run
// on. large is the paper-scale suite; small shrinks every program about
// fivefold, so per-request and per-call fixed costs weigh more than
// per-instruction work.
var workloads = map[string]func(*config){
	"large": func(*config) {},
	"small": func(c *config) {
		c.table2Scale, c.optScale, c.readScale, c.editScale = 0.1, 0.02, 0.02, 0.02
	},
}

// Phase shares of --seconds. Each phase may run past its share to
// reach the samples its figures need: serve-edit until it holds
// minPatches patches and minCold cold queries, table2 until it has made
// t2MinPasses passes.
const (
	shareRead  = 0.2
	shareEdit  = 0.3
	shareTable = 0.5
)

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "large", "workload: large or small")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from (1 is the default, 2 the held-out check)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "seconds the timed windows measure, split across the phases")
	traceFlag := fs.Int("trace", 0, "1: run each phase untraced and then traced, and print the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces and exact-count records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sizes, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want large or small)\n", cfg.workload)
		return 2
	}
	sizes(&cfg)
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.trace = *traceFlag == 1

	r := newRun(cfg, stderr)
	if err := r.execute(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rec, err := json.Marshal(map[string]any{"perfbench_record": r.record})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(rec))
	fmt.Fprintln(stdout, string(res))
	return 0
}

// run is one invocation's state: what was attempted and failed, the
// metric values, and the record printed beside the result.
type run struct {
	cfg    config
	log    io.Writer
	record map[string]any

	attempted int
	failed    int
	failures  []string

	e2e    map[string]float64
	layers map[string]float64
	setup  map[string][]float64 // phase → set-up seconds
	exact  *exactRecord

	// traceOut keeps every span of a --trace 1 run for the Chrome
	// trace; rec is traceOut while a traced window runs and nil
	// otherwise.
	traceOut *recorder
	rec      *recorder
	attr     *attribution
}

func newRun(cfg config, log io.Writer) *run {
	r := &run{
		cfg: cfg, log: log,
		record: map[string]any{},
		e2e:    map[string]float64{}, layers: map[string]float64{},
		setup: map[string][]float64{}, exact: newExactRecord(),
		attr: newAttribution(),
	}
	if cfg.trace {
		r.traceOut = newRecorder()
	}
	return r
}

// passes runs fn once untraced, or — in a --trace 1 run — untraced and
// then traced, so the phase can report its tracing overhead.
func (r *run) passes(fn func(traced bool) error) error {
	if err := fn(false); err != nil {
		return err
	}
	if !r.cfg.trace {
		return nil
	}
	r.rec = r.traceOut
	defer func() { r.rec = nil }()
	return fn(true)
}

// fail counts one failed operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
	fmt.Fprintf(r.log, "perfbench: FAIL %s\n", msg)
}

func (r *run) budget(share float64) time.Duration {
	return time.Duration(share * r.cfg.seconds * float64(time.Second))
}

// timeSetup runs set-up fn cfg.setups times, recording each duration
// under phase, and returns the last set-up's products; release frees
// the others. Every set-up must produce identical inputs: fingerprint
// summarizes them.
func timeSetup[T any](r *run, phase string, fn func() (T, error), fingerprint func(T) string, release func(T)) (T, error) {
	var last T
	var first string
	n := r.cfg.setups
	if r.cfg.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		settle()
		start := time.Now()
		v, err := fn()
		d := time.Since(start)
		if err != nil {
			return last, fmt.Errorf("%s set-up: %w", phase, err)
		}
		r.setup[phase] = append(r.setup[phase], d.Seconds())
		fp := fingerprint(v)
		if i == 0 {
			first = fp
		} else if fp != first {
			r.fail("%s set-up %d generated different inputs from the same seed", phase, i)
		}
		if i > 0 {
			release(last)
		}
		last = v
	}
	return last, nil
}

func (r *run) execute() error {
	r.environment()
	digest, err := sourceDigest(".")
	if err != nil {
		return fmt.Errorf("source digest: %w", err)
	}
	r.record["source_digest"] = digest

	ops := map[string]map[string]int{}
	steal := map[string]float64{}
	for _, ph := range []struct {
		name string
		run  func() error
	}{{"serve-read", r.serveRead}, {"serve-edit", r.serveEdit}, {"table2", r.table2}} {
		a0, f0 := r.attempted, r.failed
		stolen := stealPct()
		if err := ph.run(); err != nil {
			return err
		}
		steal[ph.name] = stolen()
		ops[ph.name] = map[string]int{"attempted": r.attempted - a0, "failed": r.failed - f0}
	}
	r.record["operations"] = ops
	// The share of CPU time the host gave to other guests during each
	// phase: on a shared host, the first thing to look at when a run's
	// times stand out.
	r.record["host_steal_pct"] = steal

	var setup float64
	for _, ph := range []string{"serve-read", "serve-edit", "table2"} {
		setup += medianOf(r.setup[ph])
	}
	r.e2e["setup_s"] = setup
	r.record["setup_s"] = r.setup

	if err := r.exact.compare(r, filepath.Join(r.cfg.outDir, "exact"), digest); err != nil {
		return err
	}
	if r.cfg.trace {
		path := filepath.Join(r.cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
		if err := r.traceOut.writeChrome(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		r.record["trace_file"] = path
	}
	r.record["attempted"] = r.attempted
	r.record["failed"] = r.failed
	if len(r.failures) > 0 {
		r.record["failures"] = r.failures
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line: every end-to-end metric, or with
// --trace 1 every per-layer metric. A metric a run could not measure
// is a failure, never a made-up value.
func (r *run) result() result {
	defs, vals := endToEnd, r.e2e
	if r.cfg.trace {
		defs, vals = perLayer, r.layers
	}
	res := result{Attempted: r.attempted, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		r.fail("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Failed = r.failed
	res.Correct = r.failed == 0
	return res
}

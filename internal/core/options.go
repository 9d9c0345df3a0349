package core

import (
	"fmt"

	"repro/internal/obs"
)

// Option configures Analyze. Options are applied in order on top of
// DefaultConfig, so later options override earlier ones; WithConfig
// replaces the configuration wholesale and is the bridge for callers
// that store a Config value (the optimizer's Options.Analysis, the
// benchmark harness's PaperConfig runs).
type Option func(*Config)

// NewConfig builds the configuration Analyze would use for the given
// options: DefaultConfig with each option applied in order.
func NewConfig(opts ...Option) Config {
	conf := DefaultConfig()
	for _, o := range opts {
		o(&conf)
	}
	return conf
}

// WithConfig replaces the entire configuration with conf. Combine with
// further options to tweak a stored configuration:
//
//	core.Analyze(p, core.WithConfig(core.PaperConfig()), core.WithParallelism(4))
func WithConfig(conf Config) Option {
	return func(c *Config) { *c = conf }
}

// Key returns a canonical string naming the configuration fields that
// determine analysis *results*: the world model (§3.5) and branch-node
// placement (§3.6). Parallelism and the observability hooks change how
// the fixed point is computed, never what it is, so they are excluded —
// two configurations with equal keys produce byte-identical summaries
// on the same program.
//
// The format matches api.Options.Key, so results cached or persisted
// under one layer's key are addressable from the other.
func (c Config) Key() string {
	return fmt.Sprintf("open_world=%t,no_branch_nodes=%t", !c.LinkIndirectCalls, !c.BranchNodes)
}

// ConfigMismatchError reports that a previously computed analysis (or a
// snapshot of one) was produced under a configuration whose Key differs
// from the one requested. Callers that map analyses by configuration
// treat it as a client error (the daemon returns 409) rather than
// silently re-analyzing under the wrong options.
type ConfigMismatchError struct {
	Want string // key the existing analysis was computed with
	Got  string // key the request asked for
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("core: option mismatch: analysis was computed with %s, request asks for %s", e.Want, e.Got)
}

// WithOpenWorld selects the paper's §3.5 treatment of indirect control
// flow: indirect calls and returns are modelled purely through the
// calling-standard assumptions, as Spike did (PaperConfig).
func WithOpenWorld() Option {
	return func(c *Config) { c.LinkIndirectCalls = false }
}

// WithClosedWorld links indirect calls to every address-taken routine,
// keeping the analysis sound for programs that break the calling
// standard. This is the default.
func WithClosedWorld() Option {
	return func(c *Config) { c.LinkIndirectCalls = true }
}

// WithBranchNodes toggles §3.6 branch nodes (default on).
func WithBranchNodes(on bool) Option {
	return func(c *Config) { c.BranchNodes = on }
}

// WithParallelism bounds the worker pool the per-routine stages (CFG
// construction, DEF/UBD initialization, flow-summary edge labeling)
// run on. n <= 0 selects runtime.GOMAXPROCS; n == 1 runs the whole
// pipeline serially. Results are identical for every n.
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// WithTracer records the analysis's spans at tr's position: its
// "analyze" (or "reanalyze", "rehydrate") span, every pipeline stage
// and wave under it, and — in a tree with worker tracks — every
// per-routine and component solve. Export with obs.Tracer.WriteTrace
// and view in Perfetto or chrome://tracing. A nil tr — the default —
// disables tracing with zero allocations.
func WithTracer(tr *obs.Tracer) Option {
	return func(c *Config) { c.Tracer = tr }
}

// WithMetrics publishes the solver telemetry — worklist traffic,
// per-component fixed-point iterations, edge relabels, graph-shape
// gauges, pool hit rates — into m (see obs.Metrics.Snapshot). A nil m
// disables metrics with zero allocations.
func WithMetrics(m *obs.Metrics) Option {
	return func(c *Config) { c.Metrics = m }
}

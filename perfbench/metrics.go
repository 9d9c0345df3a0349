package main

// metricDef names one metric, its unit and direction, the phase that
// measures it and — for per-layer metrics — the end-to-end metric it
// should move. BENCHMARK.json lists the same names and units
// (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Phase  string
	Moves  string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Phase: "all", Moves: "input generation, compiler pre-pass, snapshot capture, daemon start, loads, warm-up: the median of the repeated set-ups, summed over the phases"},
	{Name: "analyze_kinstr_per_s", Unit: "kinstr/s", Higher: true, Phase: "table2", Moves: "input instructions decoded (sxe.Decode) and analyzed (core.Analyze) per second of the process's CPU time (all threads; the host's steal left out): each program's instructions over its median CPU time per operation across passes, geometric mean over the suite"},
	{Name: "restore_kinstr_per_s", Unit: "kinstr/s", Higher: true, Phase: "table2", Moves: "instructions restored (snapshot.Decode + Snapshot.Restore) per second of process CPU time, per-program medians, geometric mean over the suite"},
	{Name: "optimize_kinstr_per_s", Unit: "kinstr/s", Higher: true, Phase: "table2", Moves: "input instructions decoded, optimized (opt.OptimizeAnalyzed) and encoded per second of process CPU time, per-program medians, geometric mean over the suite"},
	{Name: "code_size_reduction_pct", Unit: "%", Higher: true, Phase: "table2", Moves: "static instructions removed by the optimizer, summed over the suite (exact)"},
	{Name: "dyn_instr_reduction_pct", Unit: "%", Higher: true, Phase: "table2", Moves: "emulator dynamic instructions saved: 1 minus the geometric mean over the suite of steps after / before (exact)"},
	{Name: "analyze_peak_mb", Unit: "MB", Phase: "table2", Moves: "highest memory held during any analyze or restore operation, each started from settled memory"},
	{Name: "optimize_peak_mb", Unit: "MB", Phase: "table2", Moves: "highest memory held during any optimize operation, each started from settled memory"},
	{Name: "query_p50_ms", Unit: "ms", Phase: "serve-read", Moves: "point-query latency from its due time, median"},
	{Name: "patch_p50_ms", Unit: "ms", Phase: "serve-edit", Moves: "/v1/patch round trip in process CPU time (daemon and client, all threads; the host's steal left out), median"},
	{Name: "patch_p90_ms", Unit: "ms", Phase: "serve-edit", Moves: "/v1/patch round trip in process CPU time, 90th percentile: the median over consecutive 100-patch chunks of each chunk's p90 (the 95th sits where patches start to overlap a GC cycle; README.md, Aggregation)"},
	{Name: "read_after_write_p50_ms", Unit: "ms", Phase: "serve-edit", Moves: "first read (summary) of a freshly patched version in process CPU time, median"},
	{Name: "cold_query_p50_ms", Unit: "ms", Phase: "serve-edit", Moves: "upload plus first answer for a never-seen program in process CPU time, median"},
	{Name: "peak_mb", Unit: "MB", Phase: "serve-read, serve-edit", Moves: "highest memory the process held during the serve windows"},
}

// perLayer are the metrics of single layers, printed by traced runs.
// Times of the table2 layers are milliseconds per pass over the suite;
// serve layers are per request.
var perLayer = []metricDef{
	{Name: "sxe.decode_ms", Unit: "ms", Phase: "table2", Moves: "analyze_kinstr_per_s, optimize_kinstr_per_s @ table2"},
	{Name: "sxe.encode_ms", Unit: "ms", Phase: "table2", Moves: "optimize_kinstr_per_s @ table2"},
	{Name: "cfg.build_ms", Unit: "ms", Phase: "table2", Moves: "analyze_kinstr_per_s @ table2"},
	{Name: "cfg.defubd_ms", Unit: "ms", Phase: "table2", Moves: "analyze_kinstr_per_s @ table2"},
	{Name: "core.psg_build_ms", Unit: "ms", Phase: "table2", Moves: "analyze_kinstr_per_s @ table2; its share caps any one stage's gain"},
	{Name: "callgraph.build_ms", Unit: "ms", Phase: "table2", Moves: "analyze_kinstr_per_s @ table2"},
	{Name: "core.phase1_ms", Unit: "ms", Phase: "table2", Moves: "analyze_kinstr_per_s @ table2"},
	{Name: "core.phase2_ms", Unit: "ms", Phase: "table2", Moves: "analyze_kinstr_per_s @ table2"},
	{Name: "core.other_ms", Unit: "ms", Phase: "table2", Moves: "analyze_kinstr_per_s @ table2 (core.Analyze span minus the six stage times)"},
	{Name: "core.psg_nodes", Unit: "count", Phase: "table2", Moves: "the stage times above (exact)"},
	{Name: "core.psg_edges", Unit: "count", Phase: "table2", Moves: "the stage times above (exact)"},
	{Name: "core.phase1_iterations", Unit: "count", Phase: "table2", Moves: "core.phase1_ms (exact)"},
	{Name: "core.phase2_iterations", Unit: "count", Phase: "table2", Moves: "core.phase2_ms (exact)"},
	{Name: "core.alloc_mb", Unit: "MB", Phase: "table2", Moves: "analyze_peak_mb @ table2"},
	{Name: "opt.alloc_mb", Unit: "MB", Phase: "table2", Moves: "optimize_peak_mb @ table2"},
	{Name: "runtime.gc_cycles", Unit: "count", Phase: "table2", Moves: "analyze_peak_mb, optimize_peak_mb @ table2"},
	{Name: "snapshot.decode_ms", Unit: "ms", Phase: "table2", Moves: "restore_kinstr_per_s @ table2"},
	{Name: "snapshot.restore_ms", Unit: "ms", Phase: "table2", Moves: "restore_kinstr_per_s @ table2"},
	{Name: "snapshot.image_mb", Unit: "MB", Phase: "table2", Moves: "restore_kinstr_per_s @ table2"},
	{Name: "opt.analysis_ms", Unit: "ms", Phase: "table2", Moves: "optimize_kinstr_per_s @ table2 (the optimizer tracer's analyze and reanalyze spans)"},
	{Name: "opt.pass_ms", Unit: "ms", Phase: "table2", Moves: "optimize_kinstr_per_s @ table2 (OptimizeAnalyzed minus opt.analysis_ms)"},
	{Name: "opt.reanalyses", Unit: "count", Phase: "table2", Moves: "opt.analysis_ms (exact)"},
	{Name: "opt.rounds", Unit: "count", Phase: "table2", Moves: "opt.analysis_ms (exact)"},
	{Name: "opt.dirty_routine_share", Unit: "ratio", Phase: "table2", Moves: "opt.analysis_ms"},
	{Name: "opt.dead_instructions", Unit: "count", Higher: true, Phase: "table2", Moves: "code_size_reduction_pct, dyn_instr_reduction_pct @ table2 (exact)"},
	{Name: "opt.spills_removed", Unit: "count", Higher: true, Phase: "table2", Moves: "code_size_reduction_pct, dyn_instr_reduction_pct @ table2 (exact)"},
	{Name: "opt.saverestore_rewrites", Unit: "count", Higher: true, Phase: "table2", Moves: "code_size_reduction_pct, dyn_instr_reduction_pct @ table2 (exact)"},
	{Name: "emu.steps_before", Unit: "count", Phase: "table2", Moves: "dyn_instr_reduction_pct @ table2 (exact)"},
	{Name: "emu.steps_after", Unit: "count", Phase: "table2", Moves: "dyn_instr_reduction_pct @ table2 (exact)"},
	{Name: "trace.analyze_attributed_pct", Unit: "%", Higher: true, Phase: "table2", Moves: "validity of the analyze layer times: the share of analyze wall time the layers account for"},
	{Name: "trace.restore_attributed_pct", Unit: "%", Higher: true, Phase: "table2", Moves: "validity of the restore layer times"},
	{Name: "trace.optimize_attributed_pct", Unit: "%", Higher: true, Phase: "table2", Moves: "validity of the optimize layer times"},
	{Name: "trace.table2_overhead_pct", Unit: "%", Phase: "table2", Moves: "tracing overhead: traced minus untraced operation time over the pass"},

	{Name: "query_p99_ms", Unit: "ms", Phase: "serve-read", Moves: "point-query latency from its due time, 99th percentile (median over consecutive 1000-query chunks of each chunk's p99), taken from the untraced window; a per-layer figure because on a host that steals CPU its run-to-run spread exceeds any end-to-end bound"},
	{Name: "loadgen.late_p50_ms", Unit: "ms", Phase: "serve-read", Moves: "validity of query_*: a late generator understates queueing"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Phase: "serve-read", Moves: "validity of query_*"},
	{Name: "loadgen.offered_qps", Unit: "req/s", Higher: true, Phase: "serve-read", Moves: "validity of query_*"},
	{Name: "loadgen.completed_qps", Unit: "req/s", Higher: true, Phase: "serve-read", Moves: "validity of query_*: equal to the offered rate unless the daemon fell behind"},
	{Name: "serve.summary_p50_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p50_ms, query_p99_ms @ serve-read"},
	{Name: "serve.liveness_p50_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p50_ms, query_p99_ms @ serve-read"},
	{Name: "serve.callsite_p50_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p50_ms, query_p99_ms @ serve-read"},
	{Name: "serve.batch_p50_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p99_ms @ serve-read (batches share the daemon with point queries)"},
	{Name: "serve.response_kb", Unit: "KB", Phase: "serve-read", Moves: "query_p50_ms @ serve-read"},
	{Name: "serve.self_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p50_ms @ serve-read (route root minus its children)"},
	{Name: "serve.cache_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p50_ms @ serve-read (cache-lookup and wait spans)"},
	{Name: "http.transport_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p50_ms @ serve-read (client round trip minus the daemon's route span: by subtraction, not measured on its own)"},
	{Name: "loadgen.queue_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p99_ms @ serve-read (due time to send: generator lateness, client queue, request encode)"},
	{Name: "dataflow.liveness_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p99_ms @ serve-read (first touches); read_after_write_p50_ms @ serve-edit"},
	{Name: "serve.analysis_hit_ratio", Unit: "ratio", Higher: true, Phase: "serve-read", Moves: "query_p99_ms @ serve-read"},
	{Name: "serve.program_hit_ratio", Unit: "ratio", Higher: true, Phase: "serve-read", Moves: "query_p99_ms @ serve-read"},
	{Name: "serve.analysis_evictions", Unit: "count", Phase: "serve-read", Moves: "query_p99_ms @ serve-read"},
	{Name: "serve.program_evictions", Unit: "count", Phase: "serve-read", Moves: "query_p99_ms @ serve-read"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Phase: "serve-read", Moves: "query_p99_ms @ serve-read"},
	{Name: "trace.serve_read_overhead_pct", Unit: "%", Phase: "serve-read", Moves: "tracing overhead on query_p50_ms"},

	{Name: "serve.patch_reanalyze_ms", Unit: "ms", Phase: "serve-edit", Moves: "patch_p50_ms, patch_p90_ms @ serve-edit"},
	{Name: "serve.patch_self_ms", Unit: "ms", Phase: "serve-edit", Moves: "patch_p50_ms, patch_p90_ms @ serve-edit (patch root minus reanalyze and cache spans)"},
	{Name: "serve.patch_transport_ms", Unit: "ms", Phase: "serve-edit", Moves: "patch_p50_ms @ serve-edit (client round trip minus the patch root: by subtraction, not measured on its own)"},
	{Name: "serve.patch_response_kb", Unit: "KB", Phase: "serve-edit", Moves: "patch_p50_ms, patch_p90_ms @ serve-edit"},
	{Name: "api.render_ms", Unit: "ms", Phase: "serve-edit", Moves: "patch_p50_ms, cold_query_p50_ms @ serve-edit (api.BuildVersionedDoc plus encoding/json, replayed)"},
	{Name: "core.dirty_routines", Unit: "count", Phase: "serve-edit", Moves: "serve.patch_reanalyze_ms (exact per patch; mean here)"},
	{Name: "core.resolved_components", Unit: "count", Phase: "serve-edit", Moves: "serve.patch_reanalyze_ms (exact per patch; mean here)"},
	{Name: "serve.read_after_write_hit_ratio", Unit: "ratio", Higher: true, Phase: "serve-edit", Moves: "read_after_write_p50_ms @ serve-edit"},
	{Name: "serve.read_after_write_analyze_ms", Unit: "ms", Phase: "serve-edit", Moves: "read_after_write_p50_ms @ serve-edit (analyze span of the first read)"},
	{Name: "serve.load_ms", Unit: "ms", Phase: "serve-edit", Moves: "cold_query_p50_ms @ serve-edit (/v1/programs latency)"},
	{Name: "serve.cold_analyze_ms", Unit: "ms", Phase: "serve-edit", Moves: "cold_query_p50_ms @ serve-edit"},
	{Name: "serve.edit_analysis_hit_ratio", Unit: "ratio", Higher: true, Phase: "serve-edit", Moves: "cold_query_p50_ms, read_after_write_p50_ms @ serve-edit"},
	{Name: "serve.edit_analysis_evictions", Unit: "count", Phase: "serve-edit", Moves: "cold_query_p50_ms @ serve-edit"},
	{Name: "serve.edit_program_evictions", Unit: "count", Phase: "serve-edit", Moves: "cold_query_p50_ms @ serve-edit"},
	{Name: "runtime.edit_gc_pause_ms", Unit: "ms", Phase: "serve-edit", Moves: "patch_p90_ms @ serve-edit"},
	{Name: "runtime.alloc_mb_per_patch", Unit: "MB", Phase: "serve-edit", Moves: "patch_p90_ms @ serve-edit"},
	{Name: "trace.serve_edit_overhead_pct", Unit: "%", Phase: "serve-edit", Moves: "tracing overhead on patch_p50_ms"},
}

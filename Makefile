# Tier-1 verification for every PR: build, vet, the test suite, and a
# race-checked test run guarding the parallel analysis pipeline.
# `make verify` is the one command CI and contributors run.

GO ?= go

# The benchmark set recorded in BENCH_phases.json: the end-to-end
# parallel-pipeline benchmarks and the snapshot restore at the repo
# root, the per-stage allocation benchmarks in internal/core, the
# analysis-service endpoint benchmarks (BenchmarkServe*, routed into the
# document's "serve" section with queries/sec and latency quantiles),
# the daemon's write and upload paths (BenchmarkPatchRoute,
# BenchmarkLoadRoute), the SXE image encoder in full and spliced
# (BenchmarkEncode, BenchmarkSplice), and the decoder (BenchmarkDecode).
BENCH_SET = BenchmarkAnalyzeParallel$$|BenchmarkPhasesParallel$$|BenchmarkPSGBuild$$|BenchmarkPhases$$|BenchmarkTable2AnalyzeGcc$$|BenchmarkTable2AnalyzeAcad$$|BenchmarkRestoreAcad$$|BenchmarkServe|BenchmarkReanalyze|BenchmarkOptimize|BenchmarkPatchRoute$$|BenchmarkLoadRoute$$|BenchmarkEncode$$|BenchmarkSplice$$|BenchmarkDecode$$
# The per-routine labeling benchmarks are microsecond-scale, so three
# iterations are dominated by first-run slab allocation; they get a
# steady-state iteration count of their own.
BENCH_LABEL_SET = BenchmarkLabeling|BenchmarkDefUseBuild$$
BENCH_PKGS = . ./internal/core/ ./internal/serve/ ./internal/sxe/

# Baseline git ref for `make bench-compare`.
BASE ?= HEAD~1

.PHONY: fmt build vet test race bench bench-json bench-compare profile trace obs-guard soak soak-ci soak-incremental serve-smoke verify

# gofmt must have nothing to say: any file it lists fails the gate.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# perfbench is a module of its own that ./... never builds; vetting it
# here makes a core API change that breaks the benchmark fail the gate
# rather than the benchmark run.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# The equivalence and soak tests exercise the worker pool from many
# goroutines; -race turns any unsynchronized sharing into a failure.
race:
	$(GO) test -race ./...

# One iteration of every benchmark, as a smoke test; real numbers come
# from `go test -bench . -run XXX .` and `spike bench`.
bench:
	$(GO) test -bench . -benchtime 1x -run 'XXX' ./...

# Machine-readable record of the hot-path benchmarks. The raw
# `go test -json` stream is unstable across runs (timestamps, event
# interleaving) and does not belong in git; cmd/benchjson folds it into
# one compact {benchmark: {metric: value}} document so BENCH_phases.json
# diffs cleanly across PRs. Wall-time metrics are meaningful relative to
# the machine that produced them; allocs/op and B/op are portable.
bench-json:
	( $(GO) test -run XXX -bench '$(BENCH_SET)' -benchmem -benchtime 3x -json \
		$(BENCH_PKGS) ; \
	  $(GO) test -run XXX -bench '$(BENCH_LABEL_SET)' -benchmem -benchtime 500x -json \
		./internal/core/ ) | $(GO) run ./cmd/benchjson > BENCH_phases.json

# Benchstat-style comparison of the benchmark set against a baseline
# ref (default HEAD~1): checks the baseline out into a scratch worktree,
# measures both trees with identical flags, and prints per-metric delta
# tables via cmd/benchdelta. Usage: make bench-compare BASE=v1.2 — the
# tools run from the current tree, so the baseline needs no cmd/bench*.
bench-compare:
	@rm -rf .bench-baseline && git worktree prune
	git worktree add --detach .bench-baseline $(BASE)
	$(GO) build -o .bench-baseline/benchjson.bin ./cmd/benchjson
	cd .bench-baseline && $(GO) test -run XXX -bench '$(BENCH_SET)' \
		-benchmem -benchtime 3x -json $(BENCH_PKGS) \
		| ./benchjson.bin > old.json
	$(GO) test -run XXX -bench '$(BENCH_SET)' -benchmem -benchtime 3x -json \
		$(BENCH_PKGS) | $(GO) run ./cmd/benchjson > .bench-baseline/new.json
	$(GO) run ./cmd/benchdelta .bench-baseline/old.json .bench-baseline/new.json
	git worktree remove --force .bench-baseline

# CPU and heap profiles of the full analysis pipeline at gcc scale;
# inspect with `go tool pprof cpu.out` / `go tool pprof mem.out`.
profile: build
	$(GO) run ./cmd/spike bench -tables 2 -scale 0.3 -q \
		-cpuprofile cpu.out -memprofile mem.out > /dev/null
	@echo "wrote cpu.out and mem.out; inspect with: go tool pprof cpu.out"

# Example Perfetto capture: the full pipeline (analysis + Figure 1
# optimizations) over the paper's Figure 2 program, with the solver
# telemetry table alongside. Open trace.json in https://ui.perfetto.dev
# or chrome://tracing.
trace: build
	$(GO) run ./cmd/spike analyze -asm -opt -metrics -trace trace.json examples/fig2.s
	@echo "wrote trace.json; open in https://ui.perfetto.dev or chrome://tracing"

# Analysis-service smoke test: bring up the daemon in-process, load the
# Figure 2 example, drive load/summary/liveness/batch queries, and
# assert every response is 200 and a repeated query hits the analysis
# cache (verified through the /metrics counters).
serve-smoke:
	$(GO) run ./cmd/spike serve -smoke examples/fig2.s

# Observability overhead guard: vet plus the allocation budgets of
# Analyze, the PSG build, the phases, Rehydrate and a re-analysis of
# one body edit (copy mode and in place), and the tests
# proving disabled tracing/metrics cost zero allocations and the
# telemetry is deterministic. CI runs this as its own step so an obs
# regression is named in the failure, not buried in the full suite.
obs-guard:
	$(GO) vet ./...
	$(GO) test ./internal/obs/ ./internal/core/ \
		-run 'TestReanalyzeAllocationBudget|TestAnalyzeAllocationBudget|TestPSGBuildAllocationBudget|TestPhasesAllocationBudget|TestRehydrateAllocationBudget|TestDisabledObsAllocParity|TestMetricsDeterminism|TestAnalyzeTracing|TestNilObserverZeroAlloc|TestNilRequestObserverZeroAlloc|TestRequestAndOfflineSpansAgree' -v

# Correctness soak: the internal/check harness — differential runner
# across the option matrix, PSG invariant checker, Figure 6 labeling
# reference, emulator-backed dynamic oracle — over CHECK_SOAK_N
# generated programs. `make soak` is
# the acceptance bar (≥10k programs, zero violations); soak-ci is the
# bounded variant CI runs on every push, with a short fuzz pass over
# each fuzz target riding along. Each fuzz leg bounds the minimization
# of a new interesting input to 5s (Go's default is 60s), so that one
# input cannot spend most of a 30s leg being minimized.
soak:
	CHECK_SOAK_N=10000 $(GO) test ./internal/check/ -run TestGeneratedProgramsClean -count=1 -timeout 60m -v

soak-ci:
	CHECK_SOAK_N=2000 $(GO) test ./internal/check/ -run TestGeneratedProgramsClean -count=1 -timeout 30m
	CHECK_INCR_N=2000 $(GO) test ./internal/check/ -run TestIncrementalClean -count=1 -timeout 30m
	CHECK_OPT_SCALE=0.1 $(GO) test ./internal/check/ -run TestOptimizerClean -count=1 -timeout 30m
	$(GO) test ./internal/check/ -run TestLabelingExamples -count=1 -timeout 10m
	$(GO) test ./internal/check/ -run '^$$' -fuzz FuzzAnalyze -fuzztime 30s -fuzzminimizetime 5s -count=1
	$(GO) test ./internal/check/ -run '^$$' -fuzz FuzzSavedRestored -fuzztime 30s -fuzzminimizetime 5s -count=1
	$(GO) test ./internal/check/ -run '^$$' -fuzz FuzzLabeling -fuzztime 30s -fuzzminimizetime 5s -count=1
	$(GO) test ./internal/snapshot/ -run '^$$' -fuzz FuzzSnapshot -fuzztime 30s -fuzzminimizetime 5s -count=1
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzIndentCompact -fuzztime 30s -fuzzminimizetime 5s -count=1
	$(GO) test ./internal/api/ -run '^$$' -fuzz FuzzAppendDoc -fuzztime 30s -fuzzminimizetime 5s -count=1
	$(GO) test ./internal/sxe/ -run '^$$' -fuzz FuzzSplice -fuzztime 30s -fuzzminimizetime 5s -count=1
	$(GO) test ./internal/sxe/ -run '^$$' -fuzz FuzzDecode -fuzztime 30s -fuzzminimizetime 5s -count=1

# Incremental re-analysis soak: the incremental oracle alone, over
# CHECK_INCR_N (program, mutation) pairs — every Reanalyze result is
# compared byte-for-byte against a from-scratch Analyze across the full
# option matrix, with chained-edit pairs riding along.
soak-incremental:
	CHECK_INCR_N=2000 $(GO) test ./internal/check/ -run TestIncrementalClean -count=1 -timeout 30m -v

verify: fmt build vet test race

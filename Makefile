# Single source of truth for build/test/lint invocations: CI runs these
# exact targets, so a green `make ci` locally means a green workflow.

GO ?= go

.PHONY: all build test race lint lint-check lint-baseline vet fmt fmt-check bench bench-tuner bench-smoke bench-gate bench-check shard-smoke tuner-surface golden golden-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrency-bearing packages (the deterministic
# fan-out harness, the concurrent multicast simulator, the fault plans
# shared read-only across sweep workers, the recovery layer the sweeps
# fan out over, the open-system traffic engine, the membership engine
# driving churn schedules through sweep workers, the tuner whose
# surfaces and policies the traffic sweeps share, the experiment engine
# whose workers run the figures' cell closures, and those figures).
race:
	$(GO) test -race ./internal/sim/... ./internal/mcastsim/... ./internal/fault/... ./internal/recover/... ./internal/traffic/... ./internal/member/... ./internal/tuner/... ./internal/exp/... ./internal/runner/...

vet:
	$(GO) vet ./...

# repolint enforces the determinism & concurrency invariants; see
# internal/analysis and the "Static analysis & CI" section of README.md.
# lint-check runs against the checked-in baseline, so only NEW findings
# fail the build; lint-baseline regenerates that file after findings
# are deliberately accepted (review the diff before committing it).
lint: vet lint-check

lint-check:
	$(GO) run ./cmd/repolint -baseline results/lint_baseline.json ./...

lint-baseline:
	$(GO) run ./cmd/repolint -write-baseline results/lint_baseline.json ./...

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Five passes over every benchmark, as a `go test -bench` log; benchjson
# records each benchmark once, as its five runs' medians with their
# minima and maxima. Every benchmark runs one iteration per pass except
# BenchmarkFigure1, whose op allocates only 1.5 KB. A one-iteration B/op
# reading is a process-wide MemStats delta, and the timer's own
# stop-the-world can make the runtime start an OS thread inside the
# window: that thread's five runtime structures (5248 B) then read as a
# 4x regression. 10000 iterations put such a one-off below 1 B/op.
BENCH_LOG = $(GO) test -run='^$$' -bench=. -skip='^BenchmarkFigure1$$' -benchtime=1x -count=5 -benchmem ./... && \
	$(GO) test -run='^$$' -bench='^BenchmarkFigure1$$' -benchtime=10000x -count=5 -benchmem .

# BENCH_LOG recorded as JSON (see the README's benchmarking section).
# BENCH_kernel.json in the repo root is the committed record
# `bench-gate` compares against; it re-embeds the pre-kernel-rewrite
# numbers (results/bench_baseline.json) so the historical before/after
# pair survives regeneration.
bench:
	($(BENCH_LOG)) | $(GO) run ./cmd/benchjson -baseline results/bench_baseline.json -o BENCH_kernel.json

# Fast CI guard: the kernel microbenchmarks must run and parse, so the
# bench suite and the benchjson pipeline can never bit-rot.
bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkStepKernel -benchtime=1x -count=1 -benchmem . | $(GO) run ./cmd/benchjson -o /dev/null

# BENCH_tuner.json is the committed record for the tuner selection hot
# path (Choose/Observe/Select), as five runs' medians; the gate holds it
# at 0 allocs/op.
bench-tuner:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -count=5 -benchmem ./internal/tuner/ | $(GO) run ./cmd/benchjson -o BENCH_tuner.json

# Benchmark regression gate: rerun BENCH_LOG and compare the
# deterministic metrics (allocs/op, B/op) against the committed records
# (BENCH_kernel.json for the kernels, BENCH_tuner.json for the tuner
# hot path), each benchmark's five-run median against the record's.
# ns/op is reported but not gated — CI timings are noise. The raw log and the freshly generated report
# (bench-gate.log, bench-report.json) are written before any compare,
# so CI can archive them even when the gate fails. Regenerate the
# records with `make bench` / `make bench-tuner` after intentional
# changes.
bench-gate:
	@set -e; \
	($(BENCH_LOG)) > bench-gate.log; \
	$(GO) run ./cmd/benchjson -o bench-report.json < bench-gate.log; \
	$(GO) run ./cmd/benchjson -compare BENCH_kernel.json -tolerance 25 < bench-gate.log > /dev/null; \
	$(GO) run ./cmd/benchjson -compare BENCH_tuner.json -tolerance 25 < bench-gate.log > /dev/null

# Repository-benchmark check: runs all five benchmark workloads (bench/,
# its own module) at op seeds 1997/1998 and compares their output
# digests against bench/expected.json — the byte-level pin on traffic.Run
# and mcastsim.Run outputs beyond the golden tables.
bench-check:
	cd bench && $(GO) test ./...

# Sharded-engine smoke: for each of the concurrent-batch (conc), churn
# (F5) and crossover-surface (F6) figures, split the sweep across two
# shard runs sharing a cache, merge from cache alone, and assert the
# merge recomputed nothing and printed the same bytes as a serial run.
# This is the cross-machine CI path in miniature.
shard-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/mcastbench ./cmd/mcastbench; \
	for fig in conc f5 f6; do \
		$$tmp/mcastbench -fig $$fig -trials 2 > $$tmp/serial.txt; \
		$$tmp/mcastbench -fig $$fig -trials 2 -shard 0/2 -cache $$tmp/$$fig > /dev/null; \
		$$tmp/mcastbench -fig $$fig -trials 2 -shard 1/2 -cache $$tmp/$$fig > /dev/null; \
		$$tmp/mcastbench -fig $$fig -trials 2 -cache $$tmp/$$fig -resume -summary $$tmp/summary.json > $$tmp/merged.txt; \
		cmp $$tmp/serial.txt $$tmp/merged.txt; \
		grep -q '"computed": 0' $$tmp/summary.json; \
		grep -q '"complete": true' $$tmp/summary.json; \
		echo "shard-smoke: $$fig merge bit-identical to serial run, 0 cells recomputed"; \
	done

# Standalone regeneration of the committed crossover-surface artifact
# (results/tuner_surface.json, hash-verified JSON); `make golden` also
# refreshes it as a side effect of the F6 figure.
tuner-surface:
	$(GO) run ./cmd/mcastbench -fig f6 -surface results/tuner_surface.json > /dev/null

# Golden tables: results/figures_all.txt is the committed full-trials
# output of every figure, and results/tuner_surface.json the committed
# crossover surfaces the F6 sweep compiles along the way. `golden`
# regenerates both (5–9 s on a 2-vCPU VM); `golden-check` fails if
# either drifted from the code.
golden:
	$(GO) run ./cmd/mcastbench -fig all -surface results/tuner_surface.json > results/figures_all.txt

golden-check: golden
	git diff --exit-code -- results

ci: fmt-check build test bench-check lint race bench-smoke bench-gate shard-smoke golden-check

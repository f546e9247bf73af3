# Development targets for the mdrs reproduction. `make check` is the
# gate future PRs must keep green, in six steps: build, vet, gofmt, the
# full test suite under the race detector (which also exercises the
# experiments worker pool for data races, and holds the plan-search
# ledger to internal/optimizer/testdata/ledger.golden), one iteration of
# the per-layer Go benchmarks, and the benchmark harness's own vet and
# tests against this tree.

GO ?= go

.PHONY: check build vet fmt-check test race bench-smoke harness-check benchmark bench bench-serve bench-adaptive figures trace-demo loc

check: build vet fmt-check race bench-smoke harness-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file outside the benchmark's build directory is gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l . | grep -v '^bench/out')"

test:
	$(GO) test ./...

# The one concurrency gate: every package's tests, fresh (-count=1)
# under the race detector. The hammers over shared state (recorders,
# serve cache/batching/controller/Close, concurrent scheduling calls and
# plan searches, the engine's clone fan-out, the memoized Schedule.JSON)
# are ordinary tests of their packages, so they all run here.
race:
	$(GO) test -race -count=1 ./...

# One iteration of the per-layer benchmarks the docs quote, so that one
# which stops compiling or starts failing breaks the gate, not the next
# measurement. BenchmarkTreeSchedule and BenchmarkScheduleBatchMiss are
# the two the placement core's allocation parity is read from;
# BenchmarkOperatorSchedulePlacement is the one that times Figure 3's
# sort and placement loop alone, and BenchmarkSystemAssign one site's
# Equation 2 bookkeeping.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineRun|BenchmarkSearchCold|BenchmarkTreeSchedule$$|BenchmarkScheduleBatchMiss|BenchmarkOperatorSchedulePlacement|BenchmarkSystemAssign' -benchtime 1x ./internal/...

# bench/ is a nested module that compiles against this tree's internal
# packages: vet and test it here (~10 s) so a change that breaks the API
# the harness uses fails the gate instead of the benchmark pipeline.
harness-check:
	cd bench && $(GO) vet . && $(GO) test .

# The one regenerate target for performance numbers: all four
# BENCHMARK.json workloads plus the traced per-layer pass, written with
# host, cores and commit to bench/out/result.json.
benchmark:
	bash bench/run.sh --seed 1

# Regenerate BENCH_serve.json: the serving layer's open-loop load curve
# (goodput, shed rate, p50/p99/p999 latency, cache rates at three
# offered-load points) plus the closed-loop saturation probe of
# serve-layer overhead vs pure schedule time.
bench-serve:
	$(GO) run ./cmd/mdrs-loadgen -rps 50,200,800 -duration 5s -out BENCH_serve.json

# Regenerate BENCH_adaptive.json: the same open-loop sweep run twice
# against fresh in-process services — adaptive controller off, then on —
# at three steady offered-load points plus a ramp to the peak rate, so
# the on/off goodput and shed curves (and the controller's transient
# response to the ramp) are directly comparable.
# Cache off + a wide template population so every request pays real
# scheduling work — with a warm schedule cache the controller has
# nothing to trade and the curves tie.
bench-adaptive:
	$(GO) run ./cmd/mdrs-loadgen -compare-controller -cache 0 -templates 512 -joins 6 -sites 128 -rps 50,200,800 -duration 5s -out BENCH_adaptive.json

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Regenerate every Section 6 figure as CSV on stdout.
figures:
	$(GO) run ./cmd/mdrs-bench -csv

# Schedule one seeded 6-join plan and pretty-print its decision trace.
trace-demo:
	$(GO) run ./cmd/mdrs-plangen -joins 6 -seed 1 | $(GO) run ./cmd/mdrs-sched -sites 16 -trace-text

# The size ROADMAP tracks: non-test Go lines of the root module (the
# nested bench/ module excluded), then the same count for the system
# alone — without the packages that only reproduce paper sections.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | grep -vE '^(internal/(baseline|memsched|malleable|pipesim|contention|sim|experiments)|cmd/mdrs-bench)/' | xargs cat | wc -l

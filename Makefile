# Development targets for the mdrs reproduction. `make check` is the
# gate future PRs must keep green, in nine steps: build, vet, gofmt,
# the system/reproduction boundary, no fused multiply-add in system
# code on the architectures that fuse, the full test suite under the race detector (which also exercises the
# experiments worker pool for data races, and holds the plan-search
# ledger to internal/optimizer/testdata/ledger.golden), one iteration of
# the per-layer Go benchmarks, ten seconds of the engine's fuzzer, and
# the benchmark harness's own vet and tests against this tree.

GO ?= go

.PHONY: check build vet fmt-check system-deps fma-check test race bench-smoke fuzz-smoke harness-check benchmark bench bench-serve bench-adaptive figures trace-demo loc

check: build vet fmt-check system-deps fma-check race bench-smoke fuzz-smoke harness-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file outside the benchmark's build directory is gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l . | grep -v '^bench/out')"

# internal/repro/ holds the code that only reproduces the paper's
# evaluation (the SYNCHRONOUS adversary, the Section 7 scheduler, the
# fluid and pipeline simulators, the open-problem schedulers and the
# figure harness); cmd/mdrs-bench and examples/ use it. No other package
# links it, and neither do the root package's or mdrs-sched's tests.
system-deps:
	@bad=$$( { $(GO) list -deps $$($(GO) list ./... | grep -vE '^mdrs/(internal/repro|cmd/mdrs-bench|examples)(/|$$)'); \
		$(GO) list -deps -test . ./cmd/mdrs-sched; } | grep -E '^mdrs/internal/repro(/|$$)' | sort -u); \
	if [ -n "$$bad" ]; then echo "the system links reproduction packages:"; echo "$$bad"; exit 1; fi

# The Go spec lets a compiler fuse x*y + z into one fused multiply-add,
# which rounds once instead of twice, unless an explicit float64(...)
# conversion forces the rounding. amd64 never fuses; arm64, ppc64le and
# riscv64 do, and a schedule, a Report or a golden would then depend on
# the CPU. So every fusable site in system code rounds explicitly, e.g.
# float64(a*b) + c, and this step cross-compiles the commands and every
# package's test binary for those three (a function that no command
# links is still in its package's tests) and fails if `go tool objdump`
# shows a fused instruction whose source line is in an mdrs/ function
# outside a _test.go file. It needs no emulator.
FMA_ARCHES = arm64 ppc64le riscv64

fma-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for a in $(FMA_ARCHES); do \
		mkdir -p $$dir/$$a && GOARCH=$$a $(GO) build -o $$dir/$$a/ ./cmd/... && \
		GOARCH=$$a $(GO) test -c -o $$dir/$$a/ . ./cmd/... ./internal/... || exit 1; \
	done; \
	for f in $$dir/*/*; do $(GO) tool objdump -s '^mdrs/' $$f > $$f.s || exit 1; done; \
	bad=$$(awk '/^TEXT /{fn=$$2} /\tF(N)?M(ADD|SUB)/ && $$1 !~ /_test\.go:/ {print fn, $$1}' $$dir/*/*.s | sort -u); \
	if [ -n "$$bad" ]; then echo "fused multiply-add in system code; round explicitly, e.g. float64(a*b) + c:"; echo "$$bad"; exit 1; fi; \
	echo "fma-check: no fused multiply-add on $(FMA_ARCHES)"

test:
	$(GO) test ./...

# The one concurrency gate: every package's tests, fresh (-count=1)
# under the race detector. The hammers over shared state (recorders,
# serve cache/batching/controller/Close, concurrent scheduling calls and
# plan searches, concurrent engine runs over the engine's recycled run
# states, the experiments trial pool, the memoized Schedule.JSON) are
# ordinary tests of their packages, so they all run here.
race:
	$(GO) test -race -count=1 ./...

# One iteration of the per-layer benchmarks the docs quote, so that one
# which stops compiling or starts failing breaks the gate, not the next
# measurement. BenchmarkTreeSchedule and BenchmarkScheduleBatchMiss are
# the two the placement core's allocation parity is read from (the
# latter with the cost-model memo warm and cold);
# BenchmarkOperatorSchedulePlacement is the one that times Figure 3's
# sort and placement loop alone, BenchmarkSystemAssign one site's
# Equation 2 bookkeeping, BenchmarkNOpt the cost model's N_opt search
# at three widths, BenchmarkEncodeJSON one schedule's
# rendering, BenchmarkFingerprint one tree's cache identity, and
# BenchmarkCacheHitParallel / BenchmarkMetricsRecordParallel the serve
# cache's and the metrics recorder's one lock under every processor. A name that matches no benchmark — one renamed or deleted
# — fails the target too: go test alone would pass, having run nothing.
SMOKE_BENCH = EngineRun SearchCold TreeSchedule ScheduleBatchMiss OperatorSchedulePlacement SystemAssign NOpt EncodeJSON Fingerprint CacheHitParallel MetricsRecordParallel

bench-smoke:
	@out=$$($(GO) test -run '^$$' -bench "^Benchmark($$(echo $(SMOKE_BENCH) | tr ' ' '|'))$$" -benchtime 1x ./internal/... 2>&1); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	for b in $(SMOKE_BENCH); do \
		echo "$$out" | grep -qE "^Benchmark$$b([-/[:space:]]|$$)" || { echo "bench-smoke: Benchmark$$b did not run"; exit 1; }; \
	done

# The engine runs every join as a semi-join of its carrier, which equals
# the hash join only on data whose smaller operands carry distinct keys:
# the fuzzer holds the engine to the reference executor on generated
# plans and data for ten seconds.
fuzz-smoke:
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzFlatMatchesReference$$' -fuzztime 10s

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

# The size ROADMAP tracks: `total`, the non-test Go lines of the root
# module (the nested bench/ module excluded), and `system`, the same
# count without internal/repro/ and cmd/mdrs-bench/.
loc:
	@echo "total $$(git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l)"
	@echo "system $$(git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | grep -vE '^(internal/repro|cmd/mdrs-bench)/' | xargs cat | wc -l)"

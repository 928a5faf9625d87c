GO ?= go

.PHONY: build test race bench bench-smoke bench-test bench-json bench-baseline cover perf-check lint vet fmt-check tables examples linkcheck api api-check profile loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race pass over the concurrent code introduced by the experiment
# orchestrator, the rewritten simulation engine, the result store's
# concurrent writers, the serving layer's coalescing/admission paths,
# and the fault model's scheduler/topology surface (the adaptive
# scheduler's shared planner runs under the engine's single-process
# guarantee — the race pass holds it to that), plus the front ends
# that drive them: the cm5 facade, cmexp's sweep and worker fleet, and
# cmserve's daemon. -short trims the heaviest deterministic sweeps;
# `make test` still runs them raceless.
race:
	$(GO) test -race -short ./internal/exp/ ./internal/sim/ ./internal/cmmd/ ./internal/network/ ./internal/store/ ./internal/serve/ ./internal/sched/ ./internal/topo/ ./internal/trace/ ./internal/obs/ ./cm5/ ./cmd/cmexp/ ./cmd/cmserve/

# Full-suite run with a coverage profile plus a function summary; on
# CI's stable leg this IS the test step (one execution, not two), and
# coverage.out uploads as an artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 30

# Full paper-scale experiment benchmarks (host ns/op + simulated-time
# metrics); see also the engine micro-benchmarks in internal/sim.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 10x .

# One iteration of every Figure-5 benchmark, of every engine
# micro-benchmark, of the GS and AS planners, of the simulated complete
# exchanges and of the same-instant max-min burst: catches compile or
# assertion breakage in the benchmark harnesses without paying for
# stable numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench Fig5 -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench 'ExchangePlan|GSPlan|ASPlan|Execute' -benchtime 1x ./internal/sched/
	$(GO) test -run '^$$' -bench Maxmin -benchtime 1x ./internal/network/

# The layered benchmark's own tests. bench/ is a Go module of its own,
# so `make test` does not reach them: every workload runs at test scale
# and each ladder and mix job's Elapsed, Steps, Messages, Flows and
# WireBytes must equal bench/testdata/pins_*.json, as must the sweep
# tables' SHA-256.
bench-test:
	cd bench && $(GO) test ./...

# Topology x algorithm benchmark results as machine-readable JSON
# (BENCH_topo.json: ns/op + sim_ms per cell), so the perf trajectory of
# the generalized max-min solver is tracked across PRs. CI runs this as
# a smoke step; run with a higher -benchtime locally for stable numbers.
BENCHTIME ?= 1x
bench-json:
	@out="$$(mktemp)"; \
	if ! $(GO) test -run '^$$' -bench BenchmarkTopology -benchtime $(BENCHTIME) . > "$$out"; then \
		cat "$$out"; rm -f "$$out"; echo "bench-json: benchmark run failed"; exit 1; fi; \
	cat "$$out"; \
	$(GO) run ./cmd/benchjson -out BENCH_topo.json < "$$out"; rm -f "$$out"
	@echo "bench-json: wrote BENCH_topo.json"

# Gate the freshly generated BENCH_topo.json against a baseline (the
# latest main artifact in CI, or the committed BENCH_topo.baseline.json
# fallback): ns/op slowdowns beyond THRESHOLD and any sim_ms drift
# beyond SIM_THRESHOLD fail.
BASELINE ?= BENCH_topo.baseline.json
THRESHOLD ?= 25%
SIM_THRESHOLD ?= 0.1%
perf-check:
	$(GO) run ./cmd/expdiff -threshold $(THRESHOLD) -sim-threshold $(SIM_THRESHOLD) $(BASELINE) BENCH_topo.json

# Refresh the committed perf baseline after an intentional perf or
# simulation change (commit the result alongside the change).
bench-baseline:
	$(MAKE) bench-json BENCHTIME=5x
	cp BENCH_topo.json BENCH_topo.baseline.json
	@echo "bench-baseline: wrote BENCH_topo.baseline.json"

# Run every example program end to end — the documentation smoke test.
examples:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; $(GO) run ./$$d >/dev/null; done
	@echo "examples: all ran"

# Verify that every relative markdown link in the repo resolves.
linkcheck:
	$(GO) run ./cmd/linkcheck

# CPU + heap profiles of the topology benchmark (the perf gate's
# workload) via the standard pprof flags; inspect with
# `go tool pprof cpu.pprof`. CI uploads both files as artifacts.
profile:
	$(GO) test -run '^$$' -bench BenchmarkTopology -benchtime 3x \
		-cpuprofile cpu.pprof -memprofile mem.pprof .
	@echo "profile: wrote cpu.pprof and mem.pprof"

# Snapshot the public API surface. Run after intentionally changing
# exported cm5 declarations; CI's api job diffs against this file.
api:
	$(GO) doc -all ./cm5 > cm5/api.txt

# Fail when the exported cm5 surface drifts from the api.txt snapshot.
api-check:
	@tmp="$$(mktemp)"; $(GO) doc -all ./cm5 > "$$tmp"; \
	if ! diff -u cm5/api.txt "$$tmp"; then \
		echo; echo "public cm5 API changed: run 'make api' and commit cm5/api.txt"; \
		rm -f "$$tmp"; exit 1; fi; rm -f "$$tmp"; \
	echo "api-check: cm5 surface matches cm5/api.txt"

# Non-test Go line count outside bench/ (tracked files only): the
# size figure a simplicity change reports before and after.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs cat | wc -l

# bench/ is a module of its own, so it is vetted from its directory.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# CI and humans run the same thing: vet + gofmt always; golangci-lint
# (configured by .golangci.yml) when installed.
lint: vet fmt-check
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; go vet + gofmt ran"; fi

# Regenerate every table and figure of the paper on all CPUs.
tables:
	$(GO) run ./cmd/cmexp -v all

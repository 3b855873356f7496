# GEACC — conflict-aware event-participant arrangement.
# `make help` lists targets.

GO        ?= go
PKGS      := ./...
# Packages whose concurrency is exercised hardest; `make race` runs them
# under the race detector (the full suite under -race is `make race-all`).
RACE_PKGS := ./internal/obs ./internal/server ./internal/core ./internal/decomp ./internal/store ./internal/solvecache ./internal/partition
BENCH     ?= .
BENCH_FLAGS := -benchmem -benchtime=1x
# bench-e2e: which BENCHMARK.json workload (empty = all four) and seed.
WORKLOAD  ?=
SEED      ?= 1

.PHONY: build test test-service smoke-probes load-smoke race race-all vet loc bench bench-json bench-compare bench-e2e cover clean run-server help

## build: compile every package and the command-line tools
build:
	$(GO) build $(PKGS)

## test: run the full test suite (tier-1 gate, with go vet's default checks)
test:
	$(GO) test $(PKGS)

## test-service: service crash-recovery e2e (build binary, stream deltas, kill -9, restart, verify)
test-service:
	GEACC_E2E=1 $(GO) test -run TestServiceE2E -v ./cmd/geacc-server

## smoke-probes: boot a real geacc-server and exercise healthz/readyz/statusz/metrics/stats once
smoke-probes:
	./scripts/smoke_probes.sh

## load-smoke: the end-to-end benchmark for 2s per workload against a real geacc-server; fails on any wrong answer or 5xx
load-smoke:
	d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; CARGO_TARGET_DIR="$$d" bash benchmark/run.sh --seconds 2

## race: race-detector pass over the concurrency-heavy packages
race:
	$(GO) test -race $(RACE_PKGS)

## race-all: the full suite under the race detector (slow)
race-all:
	$(GO) test -race $(PKGS)

## vet: static analysis; must stay clean
vet:
	$(GO) vet $(PKGS)

## loc: non-blank, non-test production Go lines outside benchmark/ (and dot-directories)
loc:
	@find . -path './.*' -prune -o -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | \
		xargs cat | grep -cv '^[[:space:]]*$$'

## bench: run benchmarks once through (BENCH=<regexp> to filter)
bench:
	$(GO) test -run=^$$ -bench=$(BENCH) $(BENCH_FLAGS) $(PKGS)

## bench-json: solver latency+quality snapshot on pinned instances -> BENCH_solvers.json
bench-json:
	$(GO) run ./cmd/geacc-bench -reps 3 -solvers-json BENCH_solvers.json

## bench-compare: rerun the pinned solver set and diff against BENCH_solvers.json (fails on >20% regressions)
bench-compare:
	$(GO) run ./cmd/geacc-bench -reps 3 -compare BENCH_solvers.json

## bench-e2e: the end-to-end service benchmark (benchmark/, BENCHMARK.json); WORKLOAD=<name> SEED=<n>
bench-e2e:
	bash benchmark/run.sh $(if $(WORKLOAD),--workload $(WORKLOAD)) --seed $(SEED)

## cover: full suite with a coverage summary
cover:
	$(GO) test -cover $(PKGS)

## run-server: start geacc-server with the diagnostics listener on :6060
run-server:
	$(GO) run ./cmd/geacc-server -addr :8080 -debug-addr 127.0.0.1:6060

## clean: drop build artifacts and cached test results
clean:
	$(GO) clean $(PKGS)
	rm -f geacc-server geacc-solve geacc-gen geacc-bench

## help: list targets
help:
	@grep -E '^## ' $(MAKEFILE_LIST) | sed 's/^## /  /'

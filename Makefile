# Tier-1 verification: everything `make verify` runs must pass before a
# change lands. `go vet` and the race detector are part of the gate —
# the metrics registry promises race-clean concurrent reads, so the
# -race run is what keeps that promise honest.

GO ?= go

.PHONY: all build test vet staticcheck race verify bench experiments clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck is part of the gate where the binary exists (CI installs
# it); locally it degrades to a skip so `make verify` never depends on
# tooling the repo cannot vendor.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

race:
	$(GO) test -race ./...

verify: build vet staticcheck test race

# The one measurement harness: bench/planpbench, the benchmark
# BENCHMARK.json declares. One untraced pass (end-to-end metrics) and one
# traced pass (per-layer rungs) over every workload refresh the tracked
# BENCH_e2e.json / BENCH_layers.json. `go test -bench` in bench_test.go
# is for by-hand alternating pairs and writes no tracked file.
bench:
	scripts/bench-snapshot.sh

# Regenerate every paper figure/table.
experiments:
	$(GO) run ./cmd/aspbench -exp all

clean:
	$(GO) clean ./...

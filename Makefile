# Mirrors .github/workflows/ci.yml: `make ci` runs exactly what CI runs.

GO ?= go

.PHONY: build examples test race bench perfbench lint detlint staticcheck govulncheck fmt ci fixtures benchsweep benchroute benchstream benchpool benchproxy benchload benchgate clean

build:
	$(GO) build ./...

# Compile every example program (CI runs this so examples never rot).
examples:
	$(GO) build -o /dev/null ./examples/...

test:
	$(GO) test ./...

# Shuffled so test-order coupling fails here before it fails in CI.
race:
	$(GO) test -race -shuffle=on ./...

# Smoke-run every benchmark once (no timing stability, just "they run").
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The repository benchmark (perfbench/, BENCHMARK.json) is a module of its
# own that imports watter/internal/*, so ./... above never compiles it;
# vet and test it here so an internal API change cannot break it silently.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

lint:
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/detlint ./...

# Determinism-contract analyzers alone: the syntactic four (maprange/
# walltime/globalrand/floatrange — DESIGN.md §11) plus hotalloc and
# goroutinewrite (§12); lint runs them too.
detlint:
	$(GO) run ./cmd/detlint ./...

# CI runs govulncheck with network access; locally it runs when on PATH.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# CI installs staticcheck itself; locally it runs when on PATH.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

fmt:
	gofmt -w .

ci: lint staticcheck govulncheck build examples test race bench perfbench

# Regenerate the checked-in DIMACS fixture from its generator (the
# importer test fails if the two ever drift).
fixtures:
	$(GO) run ./cmd/dimacsgen -w 6 -h 5 -cell 150 -speed 8 -jitter 0.4 -seed 42 \
		-out internal/roadnet/testdata/grid6x5

# Regenerate the sequential-vs-parallel engine baseline.
benchsweep:
	$(GO) run ./cmd/watterbench -benchsweep BENCH_sweep.json

# Regenerate the routing engine vs cold-Dijkstra baseline.
benchroute:
	$(GO) run ./cmd/watterbench -benchroute BENCH_routing.json

# Regenerate the event-bus vs batch-replay overhead baseline.
benchstream:
	$(GO) run ./cmd/watterbench -benchstream BENCH_stream.json

# Regenerate the pool-maintenance plan-cache baseline.
benchpool:
	$(GO) run ./cmd/watterbench -benchpool BENCH_pool.json

# Regenerate the multi-city proxy baseline (isolation + HA bit-identity).
benchproxy:
	$(GO) run ./cmd/watterproxy -quiet -json BENCH_proxy.json

# Regenerate the open-loop load-harness baseline (arrival rows + max
# sustainable rate; everything virtual-clock deterministic).
benchload:
	$(GO) run ./cmd/watterload -quiet -json BENCH_load.json

# Gate freshly produced /tmp reports against the committed baselines —
# exactly the final CI step (run the bench steps first to produce them).
benchgate:
	$(GO) run ./cmd/benchgate \
		BENCH_sweep.json=/tmp/bench_sweep_ci.json \
		BENCH_routing.json=/tmp/bench_route_ci.json \
		BENCH_stream.json=/tmp/bench_stream_ci.json \
		BENCH_pool.json=/tmp/bench_pool_ci.json \
		BENCH_proxy.json=/tmp/bench_proxy_ci.json \
		BENCH_load.json=/tmp/bench_load_ci.json

clean:
	$(GO) clean
	rm -f watterbench wattersim wattertrain benchgate

# Development entry points. Everything is stdlib Go; no tools beyond the
# toolchain are required.

GO ?= go

.PHONY: all check build test cores race race-experiment race-live race-shard race-hybrid race-routing race-deploy chaos deploy-smoke vet vuln fmtcheck fuzz bench benchcmp benchfull experiments examples clean

all: build vet fmtcheck test

# The pre-commit gate: everything `all` runs (including `go vet`) plus the
# benchmark regression comparison against the previous PR's recorded
# baseline, the chaos suite (fault injection + recovery), the hybrid and
# routing concurrency suites under the race detector, a best-effort
# vulnerability scan, and the multi-process deployment smoke (real OS
# processes over loopback TCP, torn down with an orphan check), and the
# core-count sweep.
check: all benchcmp cores chaos race-hybrid race-routing vuln deploy-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Best-effort vulnerability scan: runs govulncheck when the tool is
# installed and the vuln DB is reachable, and reports (without failing the
# build) when it is not — CI images without network access still pass.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: govulncheck reported findings or could not reach the DB (non-fatal)"; \
	else \
		echo "vuln: govulncheck not installed, skipping"; \
	fi

# Fail if any file needs gofmt. Part of tier-1 via `make all`.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the tests whose outcome depends on the core count at GOMAXPROCS 1, 2
# and 4: the sharded engine's alloc guard and barrier drain, and Figure 4's
# concurrent registrations. A 1-CPU host alone hides faults in both.
cores:
	$(GO) test -count=1 -cpu 1,2,4 -run 'TestShardedSteadyStateZeroAlloc|TestF4Shapes|Sharded' ./internal/sim ./internal/netsim ./internal/experiment

# Race-check the concurrent machinery specifically: RunMany drives many
# independent simulations on worker goroutines, and the sweep runner +
# shared substrate carry every in-experiment parallel sweep.
race-experiment:
	$(GO) test -race ./internal/experiment ./internal/sweep ./internal/routing ./internal/flowsim

# Race-check the live server core and the telemetry/defense subsystem it
# drives: concurrent control-plane clients, watch streams, HTTP scrapes and
# the wall-clock simulation loop all share one process.
race-live:
	$(GO) test -race ./internal/live ./internal/ctl ./internal/telemetry ./internal/defense

# Race-check the sharded parallel engine: coordinator rounds, barrier
# drains, and the sharded network's cross-shard delivery, plus the e13
# scalability experiment that drives them end to end.
race-shard:
	$(GO) test -race -run 'Sharded|Partition|PeekTime|AdvanceTo' ./internal/sim ./internal/netsim ./internal/topology
	$(GO) test -race -run 'TestWorkerInvariance/e13' ./internal/experiment

# Race-check the hybrid fluid/packet substrate: boundary injectors and
# absorbers run on shard workers while the fluid model serves concurrent
# FateFrom walks, plus the e15 experiment that drives it end to end at
# worker counts {1,2,8}.
race-hybrid:
	$(GO) test -race ./internal/hybrid
	$(GO) test -race -run 'TestE15' ./internal/experiment

# Race-check the lock-free routing cache: concurrent readers racing cold
# slots, parallel Prebuild, and repair/differential suites that hammer the
# builder pool.
race-routing:
	$(GO) test -race -run 'Shared|Prebuild|Repair|Builder|Caches' ./internal/routing

# The chaos suite: the deterministic fault-injection engine plus every
# crash/heal/resync/reconnect/leak test across the stack, all under the
# race detector (DESIGN.md §11 lists the invariants these pin).
chaos:
	$(GO) test -race ./internal/fault
	$(GO) test -race -run 'Fault|FailLink|Crash|Heal|Resync|Resubscribe|Leak|Retry|E14' \
		./internal/nms ./internal/defense ./internal/ctl ./internal/live \
		./internal/netsim ./internal/experiment

# Multi-process deployment smoke: one command brings up TCSP + ISP NMS +
# attack + user-agent processes, drives the scripted control-plane
# workload, and verifies teardown leaves no orphan processes.
deploy-smoke:
	$(GO) test -run 'TestDeploySmoke|TestDeployPortCollision' -count=1 ./internal/deploy

# The deployment harness under the race detector (the orchestrator and the
# in-process side of every role run in the instrumented test binary, which
# is also re-executed as each child role).
race-deploy:
	$(GO) test -race -short -count=1 ./internal/deploy

# Short fuzz pass over the wire-format and parser fuzz targets.
fuzz:
	$(GO) test -fuzz=FuzzUnmarshalBinary -fuzztime=10s ./internal/packet/
	$(GO) test -fuzz=FuzzParsePrefix -fuzztime=10s ./internal/packet/
	$(GO) test -fuzz=FuzzParseAddr -fuzztime=10s ./internal/packet/
	$(GO) test -fuzz=FuzzSnapshotUnmarshal -fuzztime=10s ./internal/telemetry/
	$(GO) test -fuzz=FuzzFaultSchedule -fuzztime=10s ./internal/fault/

# Hot-path micro-benchmarks, recorded as the per-PR performance trajectory.
# Bump BENCH_OUT in the PR that changes performance-relevant code.
MICROBENCH = BenchmarkDeviceFastPath|BenchmarkDeviceTwoStage|BenchmarkDeviceProcessBatch|BenchmarkTrieLookup|BenchmarkCompiledTrieLookup|BenchmarkEventQueue|BenchmarkPacketForwarding|BenchmarkShardedForwarding|BenchmarkSweepE10|BenchmarkFlowEvalBatch|BenchmarkTelemetryWire|BenchmarkDetectorObserve|BenchmarkPromExposition|BenchmarkE15Hybrid|BenchmarkHybridMemory|BenchmarkCtlLoad|BenchmarkRoutingBuildTree|BenchmarkSharedTreeToParallel|BenchmarkFailLinkRepair
BENCH_OUT ?= BENCH_PR10.json
BENCH_BASE ?= BENCH_PR9.json

# Three samples per benchmark; benchjson keeps the per-metric minimum,
# which filters scheduling noise on shared machines.
bench:
	$(GO) test -bench='$(MICROBENCH)' -benchmem -run='^$$' -count=3 -timeout 40m . | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Compare the current recording against the previous PR's baseline; fails
# on a >20% ns/op or allocs/op regression in any shared benchmark.
benchcmp:
	$(GO) run ./cmd/benchjson -old $(BENCH_BASE) -new $(BENCH_OUT)

# Every benchmark in the repo (figure/claim reproductions included).
benchfull:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Regenerate every paper table/figure at full size (results/full_run.txt).
experiments:
	$(GO) run ./cmd/ddosim -all | tee results/full_run.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/reflector_defense
	$(GO) run ./examples/distributed_firewall
	$(GO) run ./examples/traceback_forensics
	$(GO) run ./examples/network_debugging
	$(GO) run ./examples/forensic_replay
	$(GO) run ./examples/live_control_plane

clean:
	$(GO) clean -testcache

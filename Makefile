# Reproduction targets for "Search on a Line with Faulty Robots".

GO ?= go

.PHONY: all build test race bench bench-paper bench-check lint loc chaos chaos-partition cluster-smoke obs-smoke fuzz repro data serve sweep clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Allocation-gated micro benchmarks: the compiled kernel (cold compile
# at n = 5/101/1001, from a sim.Plan and straight from a zig-zag
# schedule's closed form, hot eval, hot eval on wide plans n = 101/1001/10001,
# one target far past every robot's corners on A(1001,1000), batch sizes
# 1/100/10000, perfbench curve-batch's six plans with their phase
# tables built, the Byzantine vote rule, one sweep cell) with its sim
# references, the expected-time series, the telemetry plane (untraced
# and traced requests, traceparent parsing and propagation, histogram
# observation, the event journal live and nil), the router relaying a
# 40 KB and a 120 KB answer, and the service handler with the daemon's
# default request deadline and trace sampling (hot and cold /v1/plan, a cold /v1/plan on
# A(1001,500), a hot /v1/searchtime, a 1,000-target /v1/searchtimes GET
# and a 64-query batch shaped like perfbench's curve-batch, a 64-query
# batch of small plans, and a replay of perfbench build-cold's cold GETs
# with the daemon's cache size), and, on their own,
# the decoding of a curve-batch-shaped batch body, the writing of 1,024
# curve-batch search times and the reading of a 1,000-target
# curve-batch list. The root package's
# -bench regex keeps its paper-experiment benchmarks out. Writes the
# machine-readable report to BENCH.json.
bench:
	{ $(GO) test -run '^$$' -bench . -benchmem ./internal/telemetry ./internal/telemetry/journal ./internal/compiled ./internal/sim ./internal/cluster && \
	  $(GO) test -run '^$$' -bench '^Benchmark(DecodeBatch|AppendFloat|ParseTargets)$$' -benchmem ./internal/service && \
	  $(GO) test -run '^$$' -bench '^Benchmark(ServicePlanHot|ServicePlanCold|ServicePlanWide|ServiceSearchTimeHot|ServiceSearchTimesWide|ServiceBuildCold|Batch|BatchWide)$$' -benchmem . ; } | tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -o BENCH.json

# Fail when any benchmark in BENCH.json allocates more than 2x its
# allocs/op in the checked-in BENCH_baseline.json, or when a baseline
# benchmark is missing from BENCH.json. The 0-allocs/op contracts
# (untraced request, hot kernels, nil journal) stay at 0 only if they
# stay at 0.
bench-check: bench
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH.json

# Static analysis beyond go vet. staticcheck is installed by CI; run
# `go install honnef.co/go/tools/cmd/staticcheck@2025.1` to get it
# locally.
lint:
	$(GO) vet ./...
	staticcheck ./...

# The ROADMAP's size metric: lines of non-test Go code, excluding the
# perfbench/ module and hidden (build output) directories.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*' -exec cat {} + | wc -l

# Fault-injection chaos suite under the race detector: 24 deterministic
# schedules, the kill-and-resume torture test, and a randomized-seed
# soak (seeds are logged, so failures replay deterministically), then
# the fault-point framework's own tests. Only the sweep tests define
# -chaos.soak, so the two packages run separately.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|KillAndResume|FaultInjection|FaultPoint' \
		./internal/sweep -chaos.soak=45s
	$(GO) test -race -count=1 ./internal/faultpoint

# Partition chaos suite under the race detector: SWIM gossip under
# split-brain and asymmetric link faults, replication hinted handoff
# and anti-entropy convergence after a heal, and the kill-home-mid-
# sweep zero-loss acceptance test. Every partition is injected with
# seeded fault points, so a failure replays deterministically.
chaos-partition:
	$(GO) test -race -count=1 -v -run 'Partition' \
		./internal/membership ./internal/cluster

# Sharded-fleet smoke under the race detector: the consistent-hash
# ring properties, the router integration suite (failover, warm
# transfer, chaos kill/restart), and the loadgen-driven p99 gate
# against the checked-in budget (cmd/loadgen/testdata/p99_budget.json).
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster ./cmd/linerouter
	$(GO) test -race -count=1 -run 'TestClusterSmoke' ./cmd/loadgen

# Observability smoke against real processes: two linesearchd backends
# and a linerouter on ephemeral ports; asserts one sampled request
# stitches across processes on /debug/fleet-traces and that a topology
# reshape leaves journal events on the router (topology_change) and the
# receiving backend (snapshot_import).
obs-smoke:
	bash scripts/obs-smoke.sh

# One benchmark per paper table/figure plus micro benchmarks.
bench-paper:
	$(GO) test -bench . -benchmem .

# Short fuzzing smoke: the public SearchTime entry point, the fault
# questions the kernel's first visits answer (detection under a fault
# list, the adversary's fault set, a fleet at other speeds, positions)
# against their oracles over the exact engine, plan answers
# (the kernel's turning-point walk against the segment walk over the
# sim trajectories, and the written answer against encoding/json), the
# zig-zag tail's closed-form first visit against the segment walk, the
# kernel's power-table tail turns against the kernel that stored every
# turn, a zig-zag schedule compiled from its closed form against the
# compiled sim plan of its trajectories (its corners and walks, and its
# timelines and expected-time series), the Byzantine vote-rule kernel
# against the exact engine, the
# kernel's k-th-visit selection against its partial-selection oracle, the
# phase-table answer of self-similar plans against the scan, the
# expected-time series at miss probability 0 against the worst case,
# the GET endpoints' query-string parser, the canonical-token rule for
# echoed targets and the float writer against encoding/json, the
# target-list reader against strconv.ParseFloat, the batch body against
# its struct encoding, the one-pass batch decoder against encoding/json,
# the router's plan key read from a raw query string against
# url.ParseQuery and json.Marshal, and the two inbound peer decoders
# replication and gossip feed (a pushed replica checkpoint, a gossip
# POST).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSearchTime -fuzztime 30s -fuzzminimizetime 5s .
	$(GO) test -run '^$$' -fuzz FuzzFaultQuestions -fuzztime 30s -fuzzminimizetime 5s .
	$(GO) test -run '^$$' -fuzz FuzzPlanBody -fuzztime 30s -fuzzminimizetime 5s .
	$(GO) test -run '^$$' -fuzz FuzzZigZagFirstVisit -fuzztime 30s -fuzzminimizetime 5s ./internal/trajectory
	$(GO) test -run '^$$' -fuzz FuzzImplicitTail -fuzztime 30s -fuzzminimizetime 5s ./internal/compiled
	$(GO) test -run '^$$' -fuzz FuzzCompileFromSchedule -fuzztime 30s -fuzzminimizetime 5s ./internal/compiled
	$(GO) test -run '^$$' -fuzz FuzzByzantineVote -fuzztime 30s -fuzzminimizetime 5s ./internal/compiled
	$(GO) test -run '^$$' -fuzz FuzzSelectKth -fuzztime 30s -fuzzminimizetime 5s ./internal/compiled
	$(GO) test -run '^$$' -fuzz FuzzSelfSimilarKth -fuzztime 30s -fuzzminimizetime 5s ./internal/compiled
	$(GO) test -run '^$$' -fuzz FuzzExpectedMatchesWorstCase -fuzztime 30s -fuzzminimizetime 5s ./internal/compiled
	$(GO) test -run '^$$' -fuzz FuzzParseQuery -fuzztime 30s -fuzzminimizetime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzCanonicalFloat -fuzztime 30s -fuzzminimizetime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzParseTargets -fuzztime 30s -fuzzminimizetime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzBatch -fuzztime 30s -fuzzminimizetime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 30s -fuzzminimizetime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzRouteKey -fuzztime 30s -fuzzminimizetime 5s ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzReplicaCheckpoint -fuzztime 30s -fuzzminimizetime 5s ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzGossipHandler -fuzztime 30s -fuzzminimizetime 5s ./internal/membership

# Regenerate every table and figure as text on stdout.
repro:
	$(GO) run ./cmd/paper

# Serve the library over JSON HTTP (plan cache, batch, metrics).
serve:
	$(GO) run ./cmd/linesearchd

# Run the default checkpointed parameter sweep in the foreground
# (interrupt with Ctrl-C; rerunning resumes). Datasets land in
# data/sweeps/ — see data/README.md for the schema.
sweep:
	$(GO) run ./cmd/linesweep -n 2,3,4,5,6,7,8,9,10,11 -f 1,2,3,4,5 \
		-strategies auto,doubling -betas 2.5,4

# Export every experiment's datasets as CSV and JSON under data/.
data:
	$(GO) run ./cmd/paper -csv data/csv -json data/json > /dev/null
	@echo "datasets written to data/csv and data/json"

clean:
	rm -rf data
	$(GO) clean ./...

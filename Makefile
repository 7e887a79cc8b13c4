GO ?= go

# Packages exercising the worker pool, the scratch-buffer hot path and
# the singleflight serving path — the ones worth a race pass on every
# change.
RACE_PKGS = ./internal/experiments/... ./internal/mdp/... ./internal/sarsa/... ./internal/engine/... ./internal/httpapi/... ./internal/qtable/... ./internal/feedback/... ./internal/bitset/... ./internal/geo/... ./internal/repo/...

# Packages holding the resilience layer and its fault-injection matrix:
# the scriptable fault engine driven through the live HTTP stack
# (panic, hang, malformed policy, scripted failures, admission control)
# plus the daemon's signal-drain tests.
FAULT_PKGS = ./internal/resilience/... ./internal/httpapi/ ./cmd/rlplannerd/

.PHONY: check vet build test race faults repofaults fuzz examples bench-hot bench-json servebench trainbench scalebench mcbench

check: vet build test race faults

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Fault-injection matrix under the race detector: every scripted fault
# must yield a degraded plan or a clean 5xx, never a crash (DESIGN §10).
faults:
	$(GO) test -race $(FAULT_PKGS)

# Disk-fault matrix for the durable policy repository under the race
# detector: ENOSPC mid-write, kill-mid-write crash consistency, failed
# rename/fsync, corrupt-at-boot quarantine, and the cross-process claim
# protocol including stale-lease takeover (DESIGN §15).
repofaults:
	$(GO) test -race ./internal/repo/...
	$(GO) test -race ./internal/httpapi/ -run 'TestRepo|TestPreload'

# Short fuzz runs over the parsers that take untrusted bytes: policy
# artifacts (POST /api/policies/import, a shared -policy-dir), the
# compact bitset container ops, prerequisite expressions, whole
# uploaded instances (POST /api/instances), the canonical-form
# decoder of plan, batch and feedback request bodies, checked against
# encoding/json, and the repository's entry files (a shared
# -policy-dir). go test fuzzes one target per run. The minimization cap keeps a 10 s run fuzzing: shrinking each
# multi-KB artifact input under the default 60 s budget took most of the
# run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadArtifact$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzCompactOps$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/bitset/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/prereq/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadInstance$$' -fuzztime 10s -fuzzminimizetime 200x .
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/httpapi/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/repo/

# Run every example program once; the first non-zero exit fails the
# target. go build ./... compiles the examples but never runs them.
examples:
	@for d in examples/*/; do echo "$$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Microbenchmarks for the per-step MDP loop, the one-start batch
# request around a catalog-scale walk, the score and Theorem-1 check of
# a served plan at 8 192 and 100 000 items, and the feedback post, and
# for the set-up path a first plan pays: the built-in cities' photo-log
# simulation, the neighbor store build and a catalog-scale training run.
# Run with -benchmem so alloc regressions are visible.
bench-hot:
	$(GO) test -run '^$$' -bench 'BenchmarkEpisodeStep|BenchmarkEpisodeReward|BenchmarkSelectAction|BenchmarkGuidedWalk|BenchmarkPlanBatch|BenchmarkEvaluate|BenchmarkFeedback|BenchmarkTripCities|BenchmarkNeighborStore|BenchmarkLearn' -benchmem ./internal/mdp/... ./internal/sarsa/... ./internal/httpapi/ ./internal/eval/ ./internal/dataset/trip/ ./internal/geo/

# Machine-readable perf records (BENCH_<id>.json) under results/.
bench-json:
	$(GO) run ./cmd/benchharness -quick -exp fig1a,tab5 -benchjson results

# Serving-latency bench over the live HTTP stack, gated against the
# committed record: a >2x p99 regression fails (DESIGN §11). It runs one
# client, the committed record's count; the gate refuses a run whose
# client count differs from the baseline's. Writes the fresh
# measurement to /tmp so the committed baseline only moves on purpose.
servebench:
	$(GO) run ./cmd/benchharness -serve -serve-conc 1 -baseline results/BENCH_serve.json -benchjson /tmp/rlplanner-servebench

# Multi-core scaling bench: servebench's timed phase and p99 gate, then
# the plan phase reruns at GOMAXPROCS 1/2/4/8 with mutex/block profiling
# on, recording req/s, latency and scaling efficiency per point (DESIGN
# §16). On a ≥4-core host the run fails when 4-proc throughput is below
# 2.5x the 1-proc figure — the contention gate for the sharded read
# path; on smaller hosts the gate reports a skip (the sweep still runs,
# measuring oversubscription).
mcbench:
	$(GO) run ./cmd/benchharness -serve -serve-conc 1 -serve-sweep -serve-sweep-duration 2s -baseline results/BENCH_serve.json -benchjson /tmp/rlplanner-mcbench

# Training-throughput bench (cold-train scaling over worker counts plus
# one warm-start derivation), gated against the committed record: a >2x
# cold-train wall-clock regression fails (DESIGN §12). Same move-the-
# baseline-on-purpose discipline as servebench.
trainbench:
	$(GO) run ./cmd/benchharness -train -baseline results/BENCH_train.json -benchjson /tmp/rlplanner-trainbench

# Catalog-scale bench at the 16k-item point (above every dense
# threshold, fast enough for CI), gated against the committed record: a
# >1.5x resident-bytes growth of the compressed data plane (sparse Q +
# distance store + topic bitsets) fails (DESIGN §14). Same move-the-
# baseline-on-purpose discipline as servebench.
scalebench:
	$(GO) run ./cmd/benchharness -scale -scale-sizes 16384 -baseline results/BENCH_scale.json -benchjson /tmp/rlplanner-scalebench

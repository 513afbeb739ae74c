#!/bin/sh
# Full verification gate: gofmt, vet, build, run the whole test suite under the
# race detector, smoke the fuzz targets, and enforce a coverage floor on the
# PHY and learner packages. The parallel execution engine (internal/parallel
# and its users in internal/experiments) writes results into shared slices
# from worker goroutines, so the -race run is the load-bearing part of this
# check.
set -eux

cd "$(dirname "$0")/.."

# Formatting gate over the tracked Go files only, so build and benchmark
# scratch directories (e.g. .bench_build) are never walked.
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

go vet ./...
go build ./...
go test -race ./...

# The batched inference engine's contracts are concurrency-sensitive: one
# immutable snapshot serves many goroutines, and ctjam-serve hot-swaps it
# under load. Run those suites under -race explicitly (and with -count=1 so
# they never come from the build cache). The serve suite carries the
# end-to-end batching-equivalence proof: batching on/off must return
# identical actions under concurrent load and hot-reload churn.
go test -race -count=1 -run 'TestBatchSerialEquivalence|TestBatchValidation' ./internal/policy
go test -race -count=1 -run 'TestSnapshot' ./internal/rl
go test -race -count=1 ./internal/serve
go test -race -count=1 ./cmd/ctjam-serve

# The exact engine must give the same bits on every machine, including ones
# without AVX: run the inference and training packages with the asm kernels
# compiled out (noasm), so internal/nn's bitwise kernel tests, internal/rl's
# pinned trained-weight digests (TestDQNTrainBitsPinned) and every
# experiment golden, including the train id's, pass on the pure-Go
# fallbacks too.
go test -count=1 -tags noasm ./internal/nn ./internal/rl ./internal/policy
go test -count=1 -tags noasm -run 'TestGolden' ./internal/experiments

# The sweep-point cache shares memoized counters and trained schemes across
# concurrent experiment runs; its claim/wait protocol must stay race-clean
# and bit-identical to uncached serial runs.
go test -race -count=1 -run 'TestSweepCache|TestBatchedSerialEvalCounters' ./internal/experiments

# Distributed execution must stay bit-identical to a single-process run —
# static shards at several counts, the coordinator/worker HTTP protocol,
# and worker-loss retry all reproduce the same experiment traces — and the
# coordinator's lease ledger must stay race-clean under concurrent workers.
go test -race -count=1 -run 'TestDistributed' ./internal/dist

# The sharded field engine writes per-cluster results into index-addressed
# slices from worker goroutines; its bit-identical-at-any-worker-count
# guarantee must stay race-clean.
go test -race -count=1 -run 'TestFieldShardEquivalence' ./internal/iot

# The slot loops allocate nothing per slot: env.Step, one env.BatchRun slot
# and one field-cluster slot, each with and without fault injection. The
# -race run above includes these gates; run them again outside the race
# runtime, with -count=1 so a cached pass never stands in for them.
go test -count=1 -run 'NoAllocs' ./internal/env ./internal/iot ./internal/jammer

# Benchmark smoke: one iteration of the headline cache benchmark, the
# tabulated MDP solve, the batched policy engine, the DQN train step, a
# short sustained-serve window, the field engine and the environment step
# (plain and faulted), so the committed BENCH numbers stay regenerable (full
# runs via scripts/bench.sh).
go test -run '^$' -bench '^BenchmarkAllSweeps$' -benchtime 1x .
go test -run '^$' -bench '^BenchmarkModelSolve$' -benchtime 1x ./internal/core
go test -run '^$' -bench '^BenchmarkPolicyBatch$' -benchtime 1x ./internal/policy
go test -run '^$' -bench '^BenchmarkDQNTrainStep$' -benchtime 1x ./internal/rl
CTJAM_SERVE_BENCH_MS=200 go test -run '^$' -bench '^BenchmarkServeSustained$' -benchtime 1x ./internal/serve
go test -run '^$' -bench '^BenchmarkFieldEngine/nodes-1e3$' -benchtime 1x ./internal/iot
go test -run '^$' -bench '^BenchmarkEnvironmentStep$' -benchtime 1x ./internal/env

# Fuzz smoke: a few seconds per target catches shallow panics and keeps the
# committed corpora replaying. Override the budget with CHECK_FUZZTIME
# (e.g. CHECK_FUZZTIME=30s for a longer local campaign); full-length runs
# stay manual:
#   go test -run '^$' -fuzz FuzzZigbeeFrameDecode -fuzztime 5m ./internal/phy/zigbee
FUZZTIME="${CHECK_FUZZTIME:-5s}"
go test -run '^$' -fuzz FuzzZigbeeFrameDecode -fuzztime "$FUZZTIME" ./internal/phy/zigbee
go test -run '^$' -fuzz FuzzWifiPPDUDecode -fuzztime "$FUZZTIME" ./internal/phy/wifi
go test -run '^$' -fuzz FuzzCheckpointLoad -fuzztime "$FUZZTIME" ./internal/rl
go test -run '^$' -fuzz FuzzForwardBatchEngines -fuzztime "$FUZZTIME" ./internal/nn
go test -run '^$' -fuzz FuzzSchemeRoundTrip -fuzztime "$FUZZTIME" ./internal/core
go test -run '^$' -fuzz FuzzJammerSpec -fuzztime "$FUZZTIME" ./internal/jammer

# Coverage floor: the signal-processing and learner packages back every
# experiment, and the experiment harness and policy engine back every
# reported number, so they must all stay well tested.
go test -cover ./internal/phy/... ./internal/rl ./internal/experiments ./internal/policy | awk '
	{ print }
	/^(FAIL|---)/ { bad = 1 }
	/coverage:/ {
		for (i = 1; i < NF; i++) if ($i == "coverage:") {
			p = $(i + 1)
			sub(/%/, "", p)
			if (p + 0 < 70) bad = 1
		}
	}
	END { if (bad) { print "coverage gate failed (test failure or below 70% floor)"; exit 1 } }
'

# Higher floors for the inference hot path: internal/nn carries the asm
# kernels and their bitwise equivalence tests (>=80%), internal/serve the
# production decision surface (>=75%), internal/iot the sharded field
# engine whose determinism guarantees every committed field number (>=75%),
# and internal/jammer the adversary zoo whose strategies feed every cache
# key and golden trace (>=85%).
go test -cover ./internal/nn ./internal/serve ./internal/iot ./internal/jammer | awk '
	{ print }
	/^(FAIL|---)/ { bad = 1 }
	/coverage:/ {
		floor = 75
		if ($2 ~ /internal\/nn$/) floor = 80
		if ($2 ~ /internal\/jammer$/) floor = 85
		for (i = 1; i < NF; i++) if ($i == "coverage:") {
			p = $(i + 1)
			sub(/%/, "", p)
			if (p + 0 < floor) bad = 1
		}
	}
	END { if (bad) { print "coverage gate failed (nn below 80%, jammer below 85%, serve/iot below 75%)"; exit 1 } }
'

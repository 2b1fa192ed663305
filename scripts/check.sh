#!/bin/sh
# Full repository check: build, vet, gofmt, race-enabled tests (including the
# transport chaos test, the sharded-server differential conformance
# property, and the kill-and-recover WAL/snapshot conformance gate), the
# paper's shape predicates at tier-1 size under the race detector
# (internal/experiments), a race-enabled -count 20 stress of the service's
# admission and Close, a -count 50 stress of the socket and socket+proxy
# conformance tables and the window's progress/bound tests, the coverage
# gate against the seed baseline (not race-enabled, -count=1: the run that
# regenerates EXPERIMENTS.md at full size and compares it byte for byte), a
# race-enabled interpreter smoke, one full-size run each of the benchmark's
# run-cg256 and ingest-tcp-durable oracles, and a coverage-guided fuzz smoke
# over every fuzz target.
#
# Performance is not measured here: `make bench` (benchmark/run.sh) is the
# one benchmark, with repeated trials and bounds in BENCHMARK.json.
#
# FUZZTIME (default 10s) is the budget per fuzz target.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."
fuzztime="${FUZZTIME:-10s}"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l . (any listed file fails)"
make fmt-check

echo "== go test -race ./..."
go test -race ./...

echo "== race-enabled transport chaos (drop+dup+reorder+corrupt+crash, exactly-once)"
go test -race -run 'TestChaosExactlyOnce$' -count 1 ./internal/transport

echo "== race-enabled differential conformance (sharded engine vs batch recompute)"
go test -race -run 'TestDifferentialConformance$|TestRecordsSnapshotUnderIngest$' -count 1 ./internal/server

echo "== race-enabled read-snapshot conformance (cached renders vs fresh recompute, torn-read hunt)"
go test -race -run 'TestReadSnapshotConformance$' -count 1 ./internal/server

echo "== race-enabled kill-and-recover conformance (WAL+snapshot recovery vs never-crashed server)"
go test -race -run 'TestKillRecoverConformance$' -count 1 ./internal/server

echo "== race-enabled windowed link: attribution over a scripted medium (-count 10)"
go test -race -run 'TestLinkWindowAttribution$' -count 10 ./internal/transport

echo "== race-enabled socket and socket+proxy conformance tables (chaos, kill-recover; the proxy's resets/partitions/stalls/bit-flips vs the self-healing client) + multi-tenant conformance + the window's progress, bound and alloc tests (real loopback TCP)"
go test -race -run 'TestNetChaosExactlyOnce$|TestNetKillRecoverConformance$|TestMultiTenantDifferentialConformance$|TestWindowProgressUnderEarlyResets$|TestWindowBoundedAcrossOutage$|TestReceiveAmongAsyncReportsItsOwnFate$|TestWindowedSendSteadyStateAllocs$' \
    -count 1 ./internal/netsrv

echo "== race-enabled admission and Close (-count 20): shed at the MaxWorkers cap, Close reaches every connection, Close racing 8 dialers keeps the ledger"
go test -race -run 'TestLoadShedExplicitRefusal$|TestCloseReachesEveryConn$|TestCloseWhileDialing$' -count 20 ./internal/netsrv

echo "== race-enabled paper shapes (every named predicate of internal/experiments at tier-1 size; the full-size golden is skipped under race and runs in the coverage stage)"
go test -race -run 'TestShapes$' -count 1 ./internal/experiments

echo "== socket/proxy exactly-once stress (-count 50: these tables race real sockets, one pass proves little)"
go test -run 'TestNetChaosExactlyOnce$|TestNetKillRecoverConformance$|TestWindowProgressUnderEarlyResets$|TestWindowBoundedAcrossOutage$' \
    -count 50 ./internal/netsrv

echo "== coverage gate (per-package deltas vs seed baseline)"
sh scripts/cover.sh

echo "== race-enabled interpreter benchmark smoke (internal/vm BenchmarkInterpHotLoop, one iteration)"
go test -race -run '^$' -bench 'BenchmarkInterpHotLoop$' -benchtime 1x ./internal/vm

echo "== full-size run-cg256 oracle (golden virtual time, record counts and finding; one trial, untimed)"
go run ./benchmark -workload run-cg256 -seed 1 -seconds 1 -trace 0

echo "== full-size ingest-tcp-durable oracle (4,096 frames over the window into a durable tenant: none lost, duplicated, rejected or retried; untimed)"
go run ./benchmark -workload ingest-tcp-durable -seed 1 -seconds 1 -trace 0

echo "== fuzz smoke ($fuzztime per target)"
go test -run '^$' -fuzz 'FuzzBatchRoundTrip$' -fuzztime "$fuzztime" ./internal/server
go test -run '^$' -fuzz 'FuzzCheckBatch$' -fuzztime "$fuzztime" ./internal/server
go test -run '^$' -fuzz 'FuzzWALReplay$' -fuzztime "$fuzztime" ./internal/server
go test -run '^$' -fuzz 'FuzzSnapshotSlot$' -fuzztime "$fuzztime" ./internal/server
go test -run '^$' -fuzz 'FuzzParse$' -fuzztime "$fuzztime" ./internal/minic
go test -run '^$' -fuzz 'FuzzLex$' -fuzztime "$fuzztime" ./internal/minic
go test -run '^$' -fuzz 'FuzzEngineDifferential$' -fuzztime "$fuzztime" ./internal/vm
go test -run '^$' -fuzz 'FuzzETagCursor$' -fuzztime "$fuzztime" ./internal/obs
go test -run '^$' -fuzz 'FuzzSession$' -fuzztime "$fuzztime" ./internal/netsrv

#!/bin/sh
# Full repository check: build, vet, gofmt, race-enabled tests of every
# package, never served from the test cache (the transport chaos test, the
# sharded-server differential, read-snapshot and kill-and-recover
# conformance properties, the socket and socket+wire conformance tables and
# the paper's shape predicates at tier-1 size run there, once each),
# race-enabled stress of the windowed link's
# attribution and of the Conn's frames, which must equal server.AppendFrame's
# byte for byte (-count 10 each), and of the service's admission and Close
# (-count 20), a race-enabled -count 20 stress of the read path (the
# record-window snapshot under ingest, the long-poll parking behind a
# rebuild, the sharded-server differential, queries racing late records
# into the shards' epoch parts they are sealing, one trial queried on one
# evaluation worker and on several, which must agree bit for bit, queries
# racing in-order ingest, which must never reopen an epoch, and snapshot
# builds and /metrics
# scrapes racing ingest, whose numbers must all come from one instant), a
# -count 200 stress of the in-order ingest test without the race detector
# (its race needs many fast runs to show), a race-enabled -count 10 stress of
# recovery beside readers (the kill-and-recover conformance property,
# record windows across a recovery truncation, the seal's stale suffix and
# rot in a retained WAL segment: recovery installs record segments read from
# the WAL while pollers decode windows), a -count 50 stress of the socket
# and socket+wire conformance tables, the window's progress/bound tests
# and the mediums' no-retain contract (a Conn writes its next record over
# the frame it just sent), a race-enabled -count 20 stress of the rank
# runtime's point-to-point queues (order, the eager bound a sender blocks
# at), reductions (summed in rank order whatever the arrival order),
# collective pricing (the largest byte count any rank passes) and deadlock
# unwinding (every parked rank fails, Run returns), a
# race-enabled -count 5 stress of the rank VM's engine differential, its
# kernel-loop tapes and the schedule gate (every app, tape row and
# order-sensitive reduction bit-identical under GOMAXPROCS 1 and 2, while the
# ranks share each tape's segment cache), the
# coverage
# gate against the seed baseline (not race-enabled, -count=1: the run that
# regenerates EXPERIMENTS.md at full size and compares it byte for byte), a
# race-enabled interpreter smoke (the hot loop and the charge tape's counted
# loops, long and short), one full-size run each of the benchmark's
# run-cg256, ingest-inproc, ingest-tcp-durable and ingest-read-mix oracles
# (the ingest reports read the watermark and liveness view), one run of
# each program under examples/ (each must exit 0), and `make fuzz`: a
# coverage-guided fuzz smoke over every fuzz target (the frame codec and
# parser, WAL replay, snapshot slots, the epoch median, the mini-C lexer and
# parser, the engine differential, ETag cursors and the service session;
# the Makefile holds the one list).
#
# Performance is not measured here: `make bench` (benchmark/run.sh) is the
# one benchmark, with repeated trials and bounds in BENCHMARK.json.
#
# Every stage that picks tests with -run goes through `stage`, which first
# checks that each |-separated alternative of the pattern names a test of the
# package: for a pattern that matches nothing go test prints "[no tests to
# run]" and exits 0, so a test renamed or folded into another would silently
# drop out of its stress stage.
#
# FUZZTIME (default 10s) is the budget per fuzz target.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."
fuzztime="${FUZZTIME:-10s}"

# stage runs `go test` with its arguments (the package last) once every
# alternative of the -run pattern names a test of the package.
stage() {
    pattern="" pkg="" prev=""
    for arg in "$@"; do
        if [ "$prev" = "-run" ]; then pattern="$arg"; fi
        prev="$arg" pkg="$arg"
    done
    tests="$(go test -list "$pattern" "$pkg")"
    for alt in $(printf '%s\n' "$pattern" | tr '|' ' '); do
        if ! printf '%s\n' "$tests" | grep -Eq "^$alt"; then
            echo "check.sh: -run alternative '$alt' matches no test in $pkg" >&2
            exit 1
        fi
    done
    go test "$@"
}

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l . (any listed file fails)"
make fmt-check

echo "== go test -race -count=1 ./... (uncached: the socket and chaos tables are nondeterministic)"
go test -race -count=1 ./...

echo "== race-enabled windowed link: attribution over a scripted medium (-count 10)"
stage -race -run 'TestLinkWindowAttribution$' -count 10 ./internal/transport

echo "== race-enabled Conn frames (-count 10): every frame a Conn stages and seals in place equals server.AppendFrame over the same header and records"
stage -race -run 'TestConnFramesMatchAppendFrame$' -count 10 ./internal/transport

echo "== race-enabled admission and Close (-count 20): shed at the MaxWorkers cap, Close reaches every connection, Close racing 8 dialers keeps the ledger"
stage -race -run 'TestLoadShedExplicitRefusal$|TestCloseReachesEveryConn$|TestCloseWhileDialing$' -count 20 ./internal/netsrv

echo "== race-enabled read path (-count 20): record windows stay append-only under ingest, a long-poll parks behind an in-flight rebuild, the incremental verdict equals the batch recompute, a query racing late records never caches a stale verdict, a query's verdict does not depend on how many workers evaluate it, in-order ingest never reopens an epoch, every number of a snapshot generation or a scrape comes from one instant"
stage -race -run 'TestRecordsSnapshotUnderIngest$|TestWaitSnapshotParksBehindRebuild$|TestDifferentialConformance$|TestQueryRacingLateRecord$|TestQueriesRacingLateRecords$|TestQueryIndependentOfWorkers$|TestInOrderIngestNeverReopens$|TestSnapshotIsOneInstant$' -count 20 ./internal/server

echo "== in-order ingest racing queries (-count 200, no race detector): no query closes an epoch ahead of its records"
stage -run 'TestInOrderIngestNeverReopens$' -count 200 ./internal/server

echo "== race-enabled recovery beside readers (-count 10): kill-and-recover conformance, record windows across a recovery truncation, no stale suffix replayed after a seal, rot in a retained WAL segment"
stage -race -run 'TestKillRecoverConformance$|TestRecordsWindowAfterRecoveryTruncation$|TestSealRetainsNoStaleSuffix$|TestRotInRetainedSegment$' -count 10 ./internal/server

echo "== socket and socket+wire exactly-once stress (-count 50: these tables race real sockets, one pass proves little), and no medium retains a frame"
stage -run 'TestNetChaosExactlyOnce$|TestNetKillRecoverConformance$|TestWindowProgressUnderEarlyResets$|TestWindowBoundedAcrossOutage$|TestMediumsDoNotRetainFrame$' \
    -count 50 ./internal/netsrv

echo "== race-enabled rank runtime (-count 20): point-to-point order and timing, the eager bound blocks a sender, reductions sum in rank order, a collective is priced with its largest byte count, a deadlock unwinds every parked rank, a bad peer panics inside Run"
stage -race -run 'TestSendRecvTiming$|TestSendRecvExchange$|TestSelfSendRecv$|TestEagerBoundBlocksSender$|TestAllreduceSum$|TestAllreduceSumsInRankOrder$|TestConsecutiveCollectivesIndependent$|TestCollectiveCostUsesMaxBytes$|TestDeadlockUnwindsParkedRanks$|TestPanicsOnBadPeer$' -count 20 ./internal/mpisim

echo "== race-enabled rank VM (-count 5): compiled engine equals the reference walker, kernel loops compile to tapes, a run is bit-identical under GOMAXPROCS 1 and 2"
stage -race -run 'TestEngineDifferential$|TestKernelLoopsCompileToTapes$|TestScheduleDeterminism$' -count 5 ./internal/vm

echo "== coverage gate (per-package deltas vs seed baseline)"
sh scripts/cover.sh

echo "== race-enabled interpreter benchmark smoke (internal/vm BenchmarkInterpHotLoop, BenchmarkCountedLoop and BenchmarkCountedLoopShort, one iteration each)"
go test -race -run '^$' -bench 'BenchmarkInterpHotLoop$|BenchmarkCountedLoop$|BenchmarkCountedLoopShort$' -benchtime 1x ./internal/vm

echo "== full-size run-cg256 oracle (golden virtual time, record counts and finding; one trial, untimed)"
go run ./benchmark -workload run-cg256 -seed 1 -seconds 1 -trace 0

echo "== full-size ingest-inproc oracle (524,288 records through Link and Conn into the sharded server; untimed)"
go run ./benchmark -workload ingest-inproc -seed 1 -seconds 1 -trace 0

echo "== full-size ingest-tcp-durable oracle (4,096 frames over the window into a durable tenant: none lost, duplicated, rejected or retried; untimed)"
go run ./benchmark -workload ingest-tcp-durable -seed 1 -seconds 1 -trace 0

echo "== full-size ingest-read-mix oracle (open-loop ingest beside an HTTP poller and a snapshot tailer; untimed)"
go run ./benchmark -workload ingest-read-mix -seed 1 -seconds 1 -trace 0

echo "== examples (one run each; each must exit 0)"
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

echo "== fuzz smoke ($fuzztime per target)"
make fuzz FUZZTIME="$fuzztime"

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet fmt-check cover fuzz chaos chaos-recover chaos-net chaos-wire bench experiments check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt gate: any file gofmt would rewrite is listed and fails the target.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Coverage gate: full suite with -coverprofile, per-package delta table
# against scripts/coverage_baseline.txt, hard failure if the total drops
# below the seed baseline. Writes cover.out for `go tool cover -html`.
cover:
	sh scripts/cover.sh

# Coverage-guided fuzz smoke over every fuzz target (wire codec, server
# ingest, WAL replay, snapshot slot, epoch median, mini-C parser and lexer,
# closure engine vs reference interpreter, HTTP conditional-read protocol,
# network session handshake), FUZZTIME each. `go test -fuzz` takes one
# target per invocation, so they run sequentially. This is the one list:
# scripts/check.sh runs this target.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzBatchRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzCheckBatch$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzSnapshotSlot$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzEpochMedian$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/minic
	$(GO) test -run '^$$' -fuzz 'FuzzLex$$' -fuzztime $(FUZZTIME) ./internal/minic
	$(GO) test -run '^$$' -fuzz 'FuzzEngineDifferential$$' -fuzztime $(FUZZTIME) ./internal/vm
	$(GO) test -run '^$$' -fuzz 'FuzzETagCursor$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz 'FuzzSession$$' -fuzztime $(FUZZTIME) ./internal/netsrv

# The transport chaos test (drops+dups+reorder+corruption+crash-restart,
# concurrent ranks) under the race detector.
chaos:
	$(GO) test -race -run 'TestChaosExactlyOnce$$' -count 1 ./internal/transport

# The kill-and-recover chaos gate under the race detector: 120 seeded
# trials of crash + disk faults (torn writes, lying fsyncs, bit rot) +
# WAL/snapshot recovery + resumed ingest, each proven exactly equal to a
# never-crashed server while a poller races the crash.
chaos-recover:
	$(GO) test -race -run 'TestKillRecoverConformance$$' -count 1 ./internal/server

# The socket suites under the race detector: the "socket" rows of the
# chaos and kill-recover conformance tables (the transport properties re-run
# through the one client over real loopback TCP), the multi-tenant
# differential property (N runs on one listener bit-identical to N isolated
# servers), the window's tests, and the service's admission and Close
# (-count 20).
chaos-net:
	$(GO) test -race -run 'TestLinkWindowAttribution$$' -count 10 ./internal/transport
	$(GO) test -race -run 'TestNet(ChaosExactlyOnce|KillRecoverConformance)$$/^socket$$' -count 1 ./internal/netsrv
	$(GO) test -race -run 'TestMultiTenantDifferentialConformance$$|TestWindowProgressUnderEarlyResets$$|TestWindowBoundedAcrossOutage$$|TestReceiveAmongAsyncReportsItsOwnFate$$|TestWindowedSendSteadyStateAllocs$$' \
	    -count 1 ./internal/netsrv
	$(GO) test -race -run 'TestLoadShedExplicitRefusal$$|TestCloseReachesEveryConn$$|TestCloseWhileDialing$$' -count 20 ./internal/netsrv

# The wire-level rows under the race detector: internal/feed trials whose
# wire events (resets, partitions, stalls, bit flips, runt reads and writes,
# half-open connections), each placed by connection, direction and byte,
# act on the service's side of the socket below the self-healing client,
# with tenant crash-recovery and disk faults layered on top — final state
# proven exactly equal to an undisturbed reference. A failure prints its
# shrunk feed.Trial literal.
chaos-wire:
	$(GO) test -race -run 'TestNet(ChaosExactlyOnce|KillRecoverConformance)$$/^socket\+wire$$' -count 1 ./internal/netsrv

# The one benchmark: four workloads, repeated trials, end-to-end and
# per-layer metrics under the bounds in BENCHMARK.json (see
# benchmark/README.md). The Benchmark* functions under internal/ (and the
# root's wall-clock BenchmarkObsOverhead) remain as developer tools for
# `go test -bench`; the paper's tables and figures are not benchmarks — see
# `experiments`.
bench:
	sh benchmark/run.sh

# Re-measure every table and figure of the paper (internal/experiments, full
# size, ~17 s) and rewrite the generated part of EXPERIMENTS.md in place;
# the hand-written prose above its marker line is untouched. TestGolden
# fails until the file matches what the code measures — review the diff.
experiments:
	$(GO) run ./cmd/vsexp -out EXPERIMENTS.md

# The full gate: build + vet + gofmt + race tests + race chaos + race conformance +
# paper shapes under race + socket/proxy stress (-count 50) + coverage gate
# (which runs the EXPERIMENTS.md golden) + bench smoke + one run of each
# example + fuzz smoke.
check:
	scripts/check.sh

clean:
	rm -f cover.out vsensor.test EXPERIMENTS.md.tmp

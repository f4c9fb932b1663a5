GO ?= go

# The committed ceiling on non-test Go lines in internal/kvserver (`wc -l`).
# ROADMAP item 5 is a net-negative refactor: each of its steps lowers this to
# its own result, so the package can only shrink: 6367 before the layouts
# went behind one interface, 6257 after it, 6194 after the single index, 6191
# after replies left once per socket read, 6189 after journal records did,
# 6042 after every stat became one row of a table, 5939 after every command
# became one row of the verb table, 5937 after expiry became an int64, 5936
# after the item map became a flat index over fixed item chunks, 5932 after
# the server's policy switch became a lookup in core's policy table.
KVSERVER_LOC_BUDGET ?= 5932

# The same ratchet for internal/cache: 2056 lines before every policy became
# an Ordering under the one Keyed index, 1857 after it.
INTERNAL_CACHE_LOC_BUDGET ?= 1857

# pipefail so `go test | tee` recipes fail when go test fails, not when tee
# does — otherwise a panicking benchmark still passes its gate.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# Seed for `make chaos`; override to replay a failing schedule exactly:
#   make chaos CHAOS_SEED=99 CHAOS_ROUNDS=20
CHAOS_SEED ?= 1
CHAOS_ROUNDS ?= 8

.PHONY: verify fmt vet build test race race-all chaos fuzz fuzz-smoke loc-gate metrics-gate bench-check bench-pairs

verify: fmt vet build test race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrent surfaces: the public cache and the TCP server.
race:
	$(GO) test -race ./internal/kvserver/ .

# Full race sweep, as CI runs it: the replication/persistence chaos tests
# get a dedicated run first (fail fast on the concurrency-heavy surface —
# failover, replica restarts, durable positions, snapshot fidelity), then
# the full sweep — NOT -short, which would silently drop -race coverage for
# every Short-skipped test, not just the replication ones.
race-all:
	$(GO) test -race -run 'TestRepl|TestSyncReplies|TestFailover|TestDialWithReplica|TestSnapshotOrderFidelity|TestCrashRecovery|TestJournalWriteCount|TestNoByteLeavesBeforeJournalWrite|TestAcknowledgedSurvivesKill|TestDeferredJournalWriteFailure' ./internal/kvserver/
	$(GO) test -race -run 'TestGolden|TestV1Reader|TestWritersAlways|TestJournalCarries|TestFlush|TestTornFlush|TestAppendBatchNotSplit|TestFailedFlush' ./internal/persist/
	$(GO) test -race ./...

# Randomized fault-injection harness under the race detector: a
# primary+follower pair driven through seeded schedules of disk faults
# (EIO/ENOSPC/torn writes via the fault.FS seam) and replication-link
# faults (latency, partitions, truncation via the fault TCP proxy), plus
# the deterministic degraded-mode end-to-end pin. The seed is printed on
# failure; replay it with CHAOS_SEED.
chaos:
	CAMP_CHAOS=1 CAMP_CHAOS_SEED=$(CHAOS_SEED) CAMP_CHAOS_ROUNDS=$(CHAOS_ROUNDS) \
		$(GO) test -race -count=1 -run 'TestChaosPrimaryFollower|TestDegradedModeEndToEnd' -v ./internal/kvserver/

# Print non-test Go lines per package (the root, each cmd/, examples/ and internal/
# directory), then fail if a package with a *_LOC_BUDGET above has outgrown
# it. The budgets are enforced by TestLineBudgets, so `go test ./...` fails too.
loc-gate:
	@for d in . cmd/* examples/* internal/*; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		if [ $$n -gt 0 ]; then printf '%6d  %s\n' $$n $$d; fi; \
	done
	$(GO) test -count=1 -run TestLineBudgets .

# bench/ is its own module, so `go build ./... && go test ./...` at the root
# never compiles it: vet and test it where it lives, or an exported-API break
# in the packages it imports surfaces only as a failed benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The numbers a performance claim needs, without editing bench/: N alternating
# pairs of bench/run.sh on PARENT (a pristine copy under .bench_build/) and on
# this working tree, same seed within a pair; prints median [q1, q3] per side,
# pairs won and the CHANGES.md table row (cmd/benchpairs).
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=get_hot N=10
PARENT ?= HEAD
WORKLOAD ?= get_hot
N ?= 10
bench-pairs:
	$(GO) run ./cmd/benchpairs -parent $(PARENT) -workload $(WORKLOAD) -n $(N)

# Fail if a live /metrics scrape stops being valid Prometheus exposition
# text or loses a family, if any STAT or family name moves from
# internal/kvserver/testdata/stats_surface.golden, if README's family table
# falls out of step with the registry, or if the pprof endpoints stop
# serving. Runs the same end-to-end scrape test CI does.
metrics-gate:
	$(GO) test -run 'TestMetricsGate|TestMetricsStressRace|TestStatsSurface|TestReadmeListsEveryFamily' -count=1 ./internal/kvserver/

# Short fuzz pass over the binary decoders (journal records, the v2
# snapshot reader, position records, the replication stream, the sync
# handshake, trace files) and the item table against its map model.
fuzz:
	$(GO) test ./internal/alloc/ -fuzz FuzzArenaSetGet -fuzztime 30s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodeRecord -fuzztime 30s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodeSnapshotV2 -fuzztime 30s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodePositionRecord -fuzztime 30s
	$(GO) test ./internal/persist/ -fuzz FuzzStreamFrames -fuzztime 30s
	$(GO) test ./internal/kvserver/ -fuzz FuzzParseSyncReply -fuzztime 15s
	$(GO) test ./internal/kvserver/ -fuzz FuzzParseSyncArgs -fuzztime 15s
	$(GO) test ./internal/kvserver/ -fuzz FuzzParseTenantCommand -fuzztime 15s
	$(GO) test ./internal/trace/ -fuzz FuzzBinaryReader -fuzztime 30s
	$(GO) test ./internal/itab/ -fuzz FuzzTable -fuzztime 30s

# CI smoke fuzz: a few seconds per persistence-format decoder and for the
# item table on every PR, so the corpus actually executes (seed-only runs
# never explore) without holding the pipeline hostage. The full half-minute-per-target pass stays
# in `make fuzz` for local soak runs.
fuzz-smoke:
	$(GO) test ./internal/alloc/ -fuzz FuzzArenaSetGet -fuzztime 10s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodeSnapshotV2 -fuzztime 10s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodePositionRecord -fuzztime 10s
	$(GO) test ./internal/persist/ -fuzz FuzzDecodeRecord -fuzztime 10s
	$(GO) test ./internal/itab/ -fuzz FuzzTable -fuzztime 10s

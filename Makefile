GO ?= go

.PHONY: all build test race vet allocgate collide vis conformance chaos cover lint lockwall durable-race replay durability instancing ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector, including the
# stress tests written to provoke cross-thread hazards
# (internal/server/race_test.go, with and without per-frame migration).
race:
	$(GO) test -race ./...

# allocgate is the one 0 allocs/op gate (CI runs it as a hard gate): each
# line below is a (package, benchmark regexp, benchtime) triple, and every
# benchmark line the triple prints must end in "0 allocs/op" — the pooled
# and indexed reply paths, the once-per-frame visibility-index build, the
# idle fault injector (production conns are wrapped unconditionally when
# -fault* flags exist), the UDP receive from a known sender, the recorder
# tap, and the checkpoint capture.
define ALLOC_GATES
. BenchmarkReplyPhaseAllocs/(pooled|indexed) 100x
. BenchmarkVisIndexBuild 100x
./internal/transport/ BenchmarkFaultConnPassthrough 1000x
./internal/transport/ BenchmarkUDPRecv 1000x
./internal/replay/ BenchmarkRecorderOverhead 10000x
./internal/checkpoint/ BenchmarkWriterCapture 100x
endef
export ALLOC_GATES

allocgate:
	@echo "$$ALLOC_GATES" | while read -r pkg bench n; do \
		$(GO) test -run=NONE -bench="$$bench" -benchmem -benchtime="$$n" "$$pkg" | \
		awk -v b="$$bench" '/^Benchmark/ { seen++; print "gate: " $$0; if ($$0 !~ / 0 allocs\/op[ \t]*$$/) bad++ } \
			END { if (!seen || bad) { print "ALLOCATION REGRESSION: " b ": " seen+0 " benchmark lines, " bad+0 " allocating"; exit 1 } }' \
		|| exit 1; \
	done

# collide is the trace-traversal acceptance set (DESIGN.md §3.2): the
# front-to-back walk bit-identical to the exhaustive Reference walk and to
# a scan of every brush over 600 000 seeded sweeps, the deterministic
# work budget of the per-move aim ray (which also holds both walks to 0
# allocations), a fuzz smoke of the same comparison, and the three
# benchmark arms with their tests/op.
collide:
	$(GO) test -v -run 'TestTraceMatchesBruteForce|TestTraceWorkBudget' ./internal/collide/
	$(GO) test -fuzz=FuzzTraceBox -fuzztime=10s -run=NONE ./internal/collide/
	$(GO) test -run=NONE -bench=BenchmarkTraceBox -benchmem -benchtime=20000x ./internal/collide/

# vis runs the frame-coherent interest-management acceptance set: the
# randomized byte-identity property suite (indexed vs naive snapshots,
# including the concurrent-build race proof) plus the snapshot-assembly
# and index-build benchmarks.
vis:
	$(GO) test -race -v -run 'TestVisIndex|TestVisBuilder|TestGoldenReplyStream' ./internal/game/ ./internal/server/
	$(GO) test -run=NONE -bench='BenchmarkBuildSnapshot|BenchmarkVisIndexBuild' -benchmem .

# conformance proves the three engines compute the same game, with the
# load balancer off and with migration forced every frame.
conformance:
	$(GO) test -race -v -run 'TestCrossEngineConformance' ./internal/conformance/

# chaos runs the robustness acceptance suite under the race detector:
# the fault-injected soak (loss/reorder/dup/corruption plus an injected
# panic), the watchdog quarantine, panic containment, the overload shed
# ladder, and graceful shutdown.
chaos:
	$(GO) test -race -v -run 'TestChaosSoak|TestWatchdog|TestPanicContainment|TestOverloadShedLadder|TestGracefulShutdown|TestFrameCtl' ./internal/server/
	$(GO) test -race -run 'TestDecodeSurvivesFaultInjector|Fuzz' ./internal/protocol/

# lockwall gates the work-stealing ablation (DESIGN.md §10) on the paper's
# worst case — conservative locking, 160 players, 8 threads: stealing must
# cut the static schedule's lock share by >= 25% with the response rate
# within 1%. `qbench -exp lockwall` prints the full 2/4/8T table.
lockwall:
	$(GO) test -v -run 'TestLockwallGate' ./internal/experiments/

# durable-race runs the three durable-state packages whole under the race
# detector — the container (internal/qfile), the checkpoint format,
# writer and restore, and the record/replay/recovery suites — so a test
# added to any of them is gated without being named here. Both
# acceptance targets below need it; `make ci` runs it once.
durable-race:
	$(GO) test -race ./internal/qfile/ ./internal/checkpoint/ ./internal/replay/

# replay is the deterministic record/replay acceptance set (DESIGN.md
# §11): internal/replay whole — bit-identity of a session recorded on
# parallel 8T (balance+stealing) replayed across sequential, parallel
# {2,4,8}T and DES, the shrinker, the determinism audit, the checked-in
# minimal repro, the format pins, the recorder's allocation and overhead
# gates — plus the conformance suite's record/replay leg.
replay: durable-race
	$(GO) test -race -v -run 'TestRecordReplayConformance' ./internal/conformance/

# durability is the crash-recovery acceptance set (DESIGN.md §12):
# internal/checkpoint and internal/replay whole (the kill -9 chaos soak,
# recovery from checkpoint + torn redo tail on every engine, pruning, the
# capture allocation gate), the reconnect handshake matrix, a fuzz smoke
# of the checkpoint decoder and of the container reader, and the
# per-capture charge under 2% of the frame budget on the DES clock.
durability: durable-race
	$(GO) test -race -v -run 'TestReconnect|TestParkedClientsReaped' ./internal/server/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=10s -run=NONE ./internal/checkpoint/
	$(GO) test -fuzz=FuzzReader -fuzztime=10s -run=NONE ./internal/qfile/
	$(GO) test -v -run 'TestCheckpointOverheadDES' ./internal/simserver/

# cover prints the per-function coverage table's total line.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# lint builds the repo's own static analyzers (tools/qvet — a separate
# module, so the engine itself stays stdlib-only), runs their fixture
# tests, and runs them over the tree: lock-guard discipline, frame-phase
# call compatibility, atomic field hygiene, //qvet:noalloc escape gates,
# and annotation rot. The final guard proves the tools module's
# dependencies never leak into the engine's go.mod, and the cross-builds
# keep the build-tagged files (the UDP receive path) compiling for
# Windows and macOS.
lint:
	$(GO) test -C tools ./...
	$(GO) build -C tools -o bin/qvet ./qvet
	@n=$$(./tools/bin/qvet -list | wc -l); \
		[ "$$n" -eq 9 ] || \
		{ echo "lint: qvet suite has $$n analyzers, expected 9 (did a registry edit drop one?)"; exit 1; }
	./tools/bin/qvet ./...
	@! grep -E '^(require|replace)' go.mod || \
		{ echo 'lint: root go.mod must stay dependency-free (tool deps live in tools/go.mod)'; exit 1; }
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

# instancing runs the match-manager acceptance set: internal/match whole
# under -race (cross-instance digest isolation over one shared static
# world, the Reference-view locality check, the per-match footprint
# gate, panic eviction, lobby routing, scratch sharing), then without
# the detector the fleet tail gate (1000 idle + 8 active matches, active
# p99 bounded, shared scratch pool bounded; -short skips it in the race
# run because its latency bound is a wall-clock one) and the dispatch
# 0 allocs/op gate, and the scheduler benchmark.
instancing:
	$(GO) test -race -short ./internal/match/
	$(GO) test -v -run 'TestSchedulerDispatchZeroAllocs|TestMatchManagerTailGate' ./internal/match/
	$(GO) test -run=NONE -bench=BenchmarkMatchManager -benchmem -benchtime=10000x ./internal/match/

ci: vet build lint race allocgate collide conformance chaos lockwall replay durability instancing

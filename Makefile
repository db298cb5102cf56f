GO ?= go

.PHONY: all build test race vet allocgate vis conformance chaos cover lint lockwall replay durability instancing ci

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
# -fault* flags exist), and the recorder tap.
define ALLOC_GATES
. BenchmarkReplyPhaseAllocs/(pooled|indexed) 100x
. BenchmarkVisIndexBuild 100x
./internal/transport/ BenchmarkFaultConnPassthrough 1000x
./internal/replay/ BenchmarkRecorderOverhead 10000x
endef
export ALLOC_GATES

allocgate:
	@echo "$$ALLOC_GATES" | while read -r pkg bench n; do \
		$(GO) test -run=NONE -bench="$$bench" -benchmem -benchtime="$$n" "$$pkg" | \
		awk -v b="$$bench" '/^Benchmark/ { seen++; print "gate: " $$0; if ($$0 !~ / 0 allocs\/op[ \t]*$$/) bad++ } \
			END { if (!seen || bad) { print "ALLOCATION REGRESSION: " b ": " seen+0 " benchmark lines, " bad+0 " allocating"; exit 1 } }' \
		|| exit 1; \
	done

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

# replay runs the deterministic record/replay acceptance set
# (DESIGN.md §11): bit-identity of a session recorded on parallel 8T
# (balance+stealing) replayed across sequential, parallel {2,4,8}T, and
# DES; the delta-debugging shrinker; the static determinism audit; the
# log-decoder fuzz seeds; the checked-in minimal-repro regression; and
# the recorder overhead gates (0 allocs/op, <5% of move cost).
replay:
	$(GO) test -race -v -run 'TestRecordSession|TestReplayBit|TestReplayDES|TestReplayWith|TestReplayIs|TestShrink|TestMinimalLog|TestChaosSoakReplay|TestDeterminismAudit|TestEncodeDecode|TestDecodeRejects|TestValidateCatches|TestRecorderZeroAllocs|FuzzDecodeLog' ./internal/replay/
	$(GO) test -race -v -run 'TestRecordReplayConformance' ./internal/conformance/
	$(GO) test -v -run 'TestRecorderOverheadBudget' ./internal/replay/
	$(GO) test -run=NONE -bench=BenchmarkRecorderOverhead -benchmem -benchtime=10000x ./internal/replay/

# durability runs the crash-recovery acceptance set (DESIGN.md §12):
# the kill -9 chaos soak (recovery from checkpoint + torn redo tail,
# digest-exact against from-genesis replay on every engine, live restart
# with survivor reconnect), the reconnect handshake matrix, the format /
# recovery unit suites with a decoder fuzz smoke, and the two overhead
# gates — the capture path must stay at 0 allocs/op and the per-capture
# charge under 2% of the frame budget on the deterministic DES clock.
durability:
	$(GO) test -race -v -run 'TestCrashRecoverySoak' ./internal/replay/
	$(GO) test -race -v -run 'TestReconnect|TestParkedClientsReaped' ./internal/server/
	$(GO) test -race -run 'TestWriter|TestMerge|TestDecode|TestEncodeDecodeIdentity|TestLoadLatest|TestRestoredWorld|TestFileNameParse|FuzzDecodeCheckpoint' ./internal/checkpoint/
	$(GO) test -race -run 'TestDigestMatchesReplay|TestRecoverCrossEngine|TestRecoverDES|TestStreamRecorder|TestDecodePrefixTorn' ./internal/replay/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=10s -run=NONE ./internal/checkpoint/
	$(GO) test -v -run 'TestWriterCaptureAllocs' ./internal/checkpoint/
	$(GO) test -v -run 'TestCheckpointOverheadDES' ./internal/simserver/
	$(GO) test -run=NONE -bench=BenchmarkWriterCapture -benchmem -benchtime=100x ./internal/checkpoint/

# cover prints the per-function coverage table's total line.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# lint builds the repo's own static analyzers (tools/qvet — a separate
# module, so the engine itself stays stdlib-only) and runs them over the
# tree: lock-guard discipline, frame-phase call compatibility, atomic
# field hygiene, //qvet:noalloc escape gates, and annotation rot. The
# final guard proves the tools module's dependencies never leak into the
# engine's go.mod.
lint:
	$(GO) build -C tools -o bin/qvet ./qvet
	@n=$$(./tools/bin/qvet -list | wc -l); \
		[ "$$n" -eq 9 ] || \
		{ echo "lint: qvet suite has $$n analyzers, expected 9 (did a registry edit drop one?)"; exit 1; }
	./tools/bin/qvet ./...
	@! grep -E '^(require|replace)' go.mod || \
		{ echo 'lint: root go.mod must stay dependency-free (tool deps live in tools/go.mod)'; exit 1; }

# instancing runs the match-manager acceptance set: cross-instance
# digest isolation and panic eviction under -race, the fleet tail gate
# (1000 idle + 8 active matches, active p99 bounded, shared scratch
# pool bounded), the dispatch 0 allocs/op gate, and the scheduler
# benchmark.
instancing:
	$(GO) test -race -run 'TestCrossInstanceDigestIsolation|TestEvictionIsolation|TestLobbyRoutesAndAssigns|TestIdleMatchesShareScratch|TestPokeSchedulesPromptly' ./internal/match/
	$(GO) test -v -run 'TestSchedulerDispatchZeroAllocs|TestMatchManagerTailGate' ./internal/match/
	$(GO) test -run=NONE -bench=BenchmarkMatchManager -benchmem -benchtime=10000x ./internal/match/

ci: vet build lint race allocgate conformance chaos lockwall replay durability instancing

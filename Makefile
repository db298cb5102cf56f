GO ?= go

.PHONY: all build test race vet collide vis conformance chaos cover lint rungates lockwall durable-race replay durability instancing ci

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
# The suite is also the one allocation gate: every allocation-free path
# has a tier-1 test that requires exactly 0 allocations (DESIGN.md §9).
race:
	$(GO) test -race ./...

# collide is the trace-traversal acceptance set (DESIGN.md §3.2): the
# front-to-back walk bit-identical to the exhaustive walk over the same
# nodes, to the Reference tree and to a scan of every brush over 600 000
# seeded sweeps, the shape of the surface-area-heuristic tree, the
# deterministic work budget of the per-move aim ray (which also holds
# both walks to 0 allocations), a fuzz smoke of the same comparison, the
# three benchmark arms with their tests/op, and the tree build.
collide:
	$(GO) test -v -run 'TestTraceMatchesBruteForce|TestTreeShape|TestTraceWorkBudget' ./internal/collide/
	$(GO) test -fuzz=FuzzTraceBox -fuzztime=10s -run=NONE ./internal/collide/
	$(GO) test -run=NONE -bench='BenchmarkTraceBox|BenchmarkNewTree' -benchmem -benchtime=20000x ./internal/collide/

# vis runs the frame-coherent interest-management acceptance set: the
# randomized byte-identity property suite (indexed vs naive snapshots,
# including the concurrent-build race proof) plus the snapshot-assembly
# and index-build benchmarks.
vis:
	$(GO) test -race -v -run 'TestVisIndex|TestVisBuilder|TestGoldenReplyStream' ./internal/game/ ./internal/server/
	$(GO) test -run=NONE -bench='BenchmarkBuildSnapshot|BenchmarkVisIndexBuild' -benchmem .

# conformance proves the live engine at 0 (the sequential reference), 1,
# 2, 4 and 8 threads and the DES at 2/4/8 threads and sequential compute
# the same game, with the load balancer off and with migration forced
# every frame.
conformance:
	$(GO) test -race -v -run 'TestCrossEngineConformance' ./internal/conformance/

# chaos runs the robustness acceptance suite under the race detector:
# the fault-injected soak (loss/reorder/dup/corruption plus an injected
# panic), the watchdog's wedge record, panic containment in both phases,
# the frame barriers, the overload shed ladder, graceful shutdown, and
# the crash-only wedge path (a wedged worker exits the server, which
# recovers from its checkpoint).
chaos:
	$(GO) test -race -v -run 'TestChaosSoak|TestWatchdogRecordsWedge|TestPanicContainment|TestOverloadShedLadder|TestGracefulShutdown|TestFrameCtlBarrierOrdering' ./internal/server/
	$(GO) test -race -v -run 'TestWedgeCrashRecovers' ./internal/replay/
	$(GO) test -race -run 'TestDecodeSurvivesFaultInjector|Fuzz' ./internal/protocol/

# lockwall gates the work-stealing ablation (DESIGN.md §10) on the paper's
# worst case — conservative locking, 160 players, 8 threads: stealing must
# cut the static schedule's lock share by >= 25% with the response rate
# within 1%. The gate reads the Lockwall experiment's own metrics, the
# full 2/4/8T table `qbench -exp lockwall -dur 1` prints.
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
# {2,4,8}T and DES, the shrinker, the every-field codec round trip, the
# checked-in minimal repro, the format pins, the recorder's allocation
# and overhead gates — plus the conformance suite's record/replay leg.
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

# lint fails on any tracked .go file gofmt would rewrite, builds the
# repo's own static analyzers (tools/qvet — a separate module, so the
# engine itself stays stdlib-only), runs their fixture tests, and runs
# them over the tree: lock-guard discipline, frame-phase call
# compatibility, determinism closures, the steal-hint protocol, and
# annotation rot — the five checks whose bugs no runtime gate catches
# (DESIGN.md §9). The final guard proves the tools module's dependencies
# never leak into the engine's go.mod, and the cross-builds keep the build-tagged files (the UDP receive path, and
# the batched send path's per-architecture sendmmsg number) compiling
# for Windows, macOS and linux/arm64.
lint:
	@out=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$(git ls-files '*.go')); \
		[ -z "$$out" ] || { echo "lint: gofmt would rewrite:"; echo "$$out"; exit 1; }
	$(GO) test -C tools ./...
	$(GO) build -C tools -o bin/qvet ./qvet
	@n=$$(./tools/bin/qvet -list | wc -l); \
		[ "$$n" -eq 5 ] || \
		{ echo "lint: qvet suite has $$n analyzers, expected 5 (did a registry edit drop one?)"; exit 1; }
	./tools/bin/qvet ./...
	@! grep -E '^(require|replace)' go.mod || \
		{ echo 'lint: root go.mod must stay dependency-free (tool deps live in tools/go.mod)'; exit 1; }
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...

# rungates keeps the -run 'A|B|…' and -bench='A|B|…' lists of the
# targets in this file honest: each alternative must match at least one
# test, fuzz target or benchmark in its line's packages (`go test
# -list`), so a renamed test or benchmark cannot silently leave its gate.
rungates:
	@sed -n -e "s/^\t\$$(GO) test .*-run '\([^']*\)' \(.*\)$$/\1 \2/p" \
		-e "s/^\t\$$(GO) test .*-bench='\{0,1\}\([^' ]*\)'\{0,1\}\( -[^ ]*\)* \(\..*\)$$/\1 \3/p" \
		$(firstword $(MAKEFILE_LIST)) | \
	while read -r re pkgs; do \
		names=$$($(GO) test -list . $$pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)') || \
			{ echo "rungates: cannot list the tests of $$pkgs"; exit 1; }; \
		for alt in $$(echo "$$re" | tr '|' ' '); do \
			echo "$$names" | grep -Eq -- "$$alt" || \
				{ echo "rungates: alternative $$alt matches no test or benchmark in $$pkgs"; exit 1; }; \
		done; \
		echo "rungates: $$pkgs: $$re"; \
	done

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

ci: vet build lint rungates race collide conformance chaos lockwall replay durability instancing

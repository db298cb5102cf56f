// Package simserver runs the parallel (or sequential) game server on the
// simulated machine of package sim, reproducing the paper's experiments:
// the same phase orchestration, master election, and region-locking
// protocol as the live engine in package server, but with time charged by
// the cost model instead of wall clocks. Runs are deterministic, so every
// figure regenerates exactly.
package simserver

import (
	"fmt"
	"strings"

	"qserve/internal/balance"
	"qserve/internal/checkpoint"
	"qserve/internal/costmodel"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/worldmap"
)

// Config parameterizes one simulated run.
type Config struct {
	// World, when non-nil, is used directly instead of being constructed
	// from Map/MapConfig — the crash-recovery path feeds a restored world
	// (checkpoint.RestoreWorld) here so a DES run can resume a recovered
	// session. The caller is responsible for sizing its entity table.
	World *game.World
	// Map, when non-nil, is used directly (e.g. an arena from
	// worldmap.GenerateArena); otherwise MapConfig generates the world.
	Map *worldmap.Map
	// MapConfig generates the world; DefaultConfig when zero-valued.
	MapConfig worldmap.Config
	// Players is the number of automatic players.
	Players int
	// Threads is the server thread count, as in the live engine's
	// server.Config. 0 is the unmodified sequential server (§4.1's
	// baseline): one context, no locking, no region bookkeeping, so
	// Strategy, Balance and Stealing do nothing. N >= 1 is the
	// multithreaded server on N threads with region locks. Negative
	// counts are rejected.
	Threads int
	// Machine is the simulated hardware; costmodel.PaperMachine by
	// default.
	Machine costmodel.MachineConfig
	// Strategy is the region-lock scheme; locking.Conservative by
	// default.
	Strategy locking.Strategy
	// DurationS is the virtual run length in seconds. The paper runs two
	// minutes; ten seconds reproduces the same steady-state statistics.
	DurationS float64
	// AreanodeDepth overrides the tree depth (default 4 ⇒ 31 nodes).
	AreanodeDepth int
	// Seed drives map generation fallback, client staggering, and bot
	// behaviour.
	Seed int64

	// Assign selects the client→thread policy. The paper uses static
	// block assignment; AssignRegion implements its §5.1 future-work
	// suggestion ("dynamically assigning threads to players taking into
	// account the region they are located may reduce contention").
	Assign AssignPolicy
	// BatchDelayNs implements the §5.2 future-work suggestion ("the
	// frame master thread can wait for a period of time before starting
	// the frame"): the master idles this long after its triggering
	// packet, letting more threads and requests join the frame.
	BatchDelayNs int64

	// TraceFrames, when positive, records per-thread phase spans for the
	// first N frames into Result.Trace — the raw material for a Figure-3
	// style execution timeline.
	TraceFrames int

	// Balance configures dynamic client→thread rebalancing at the frame
	// barrier (see internal/balance). Off by default; independent of
	// Assign, which only picks the initial placement.
	Balance balance.Policy
	// Cluster pins the first N players to the map's first room: they
	// steer back whenever they stray, so request density — and execute
	// cost — stays concentrated there. This is the skewed workload of the
	// balancing experiment ("all bots clustered in one room").
	Cluster int
	// Script, when set, replaces the bot policy: client idx's move number
	// seq (0-based) is whatever the script returns. Used by the
	// cross-engine conformance suite to drive identical inputs through
	// every engine.
	Script func(clientIdx int, seq int64) protocol.MoveCmd
	// MaxMoves, when positive, ends each client's request stream after
	// that many moves (the run still lasts DurationS so in-flight frames
	// drain). With Script this makes runs exactly reproducible move for
	// move.
	MaxMoves int64

	// IndexedSnapshots charges the reply phase as the frame-coherent
	// visibility index (one shared build per frame, per-client Considered
	// shrunk to the candidate set) instead of the paper server's naive
	// per-client full-table scan. Off by default: the paper-reproduction
	// figures model the published server, and — like batching, dynamic
	// region assignment, and load balancing — the improvement is an
	// opt-in ablation arm (`qbench -exp visibility`). Wire output is
	// byte-identical either way; only the charged costs differ. (The
	// *live* engines always use the index: identical bytes, strictly
	// less wall time.)
	IndexedSnapshots bool

	// Playback, when non-nil, replays a recorded input stream instead of
	// running bot clients: players spawn from recorded connects, moves
	// replay in log order with one item in flight server-wide, and world
	// physics runs exactly the recorded tick dts (see internal/replay
	// and DESIGN.md §11). Players/Script/MaxMoves are ignored;
	// the run ends when the stream drains.
	Playback *Playback
	// Record, when non-nil, receives the run's deterministic input
	// stream (committed moves, world ticks, spawns, migrations) exactly
	// as the live engines' Config.Record does, so DES sessions can be
	// captured and replayed too.
	Record server.Recorder

	// Checkpoint, when non-nil, captures durable world checkpoints at the
	// frame barrier exactly as the live engines' server.Config.Checkpoint
	// does (DESIGN.md §12). The barrier-side serialization is charged to
	// the master's frame time via Model.CheckpointCost; the file write is
	// off-thread in the live engines and free here.
	Checkpoint *checkpoint.Writer

	// Stealing enables the conflict-aware work-stealing request
	// scheduler: workers pool their clients' move commands per frame,
	// drain their own pool first, then steal pending entries from other
	// threads' pools; a stolen (or pooled) request whose first region
	// acquisition is contended parks and the worker takes a
	// non-conflicting entry instead of queueing on the lock. Off by
	// default — the paper-reproduction figures model static execution,
	// and the lock-wall study (`qbench -exp lockwall`) is the A/B arm.
	// Per-client request order is preserved (see DESIGN.md §10), so
	// script-driven runs stay move-for-move comparable.
	Stealing bool
}

// PhaseSpan is one traced interval of a thread's execution.
type PhaseSpan struct {
	Thread  int
	Phase   string // "world", "requests", "reply", "wait-open", "barrier", "wait-end", "idle"
	StartNs int64
	EndNs   int64
}

// AssignPolicy selects how players map to server threads.
type AssignPolicy int

const (
	// AssignBlock is the paper's static block assignment (§3.1).
	AssignBlock AssignPolicy = iota
	// AssignRoundRobin interleaves players across threads statically.
	AssignRoundRobin
	// AssignRegion periodically repartitions players across threads by
	// their current map region (areanode leaf order), the paper's
	// proposed contention-reducing policy.
	AssignRegion
)

// assignNames are the policies' command-line names, in declaration order.
var assignNames = []string{AssignBlock: "block", AssignRoundRobin: "roundrobin", AssignRegion: "region"}

// ParseAssign returns the policy a command line names "block",
// "roundrobin" or "region"; any other name is an error that lists them.
func ParseAssign(name string) (AssignPolicy, error) {
	for i, n := range assignNames {
		if n == name {
			return AssignPolicy(i), nil
		}
	}
	return 0, fmt.Errorf("unknown assignment policy %q (valid: %s)", name, strings.Join(assignNames, ", "))
}

// String implements fmt.Stringer.
func (a AssignPolicy) String() string {
	switch a {
	case AssignBlock:
		return "block"
	case AssignRoundRobin:
		return "roundrobin"
	case AssignRegion:
		return "region-dynamic"
	default:
		return "unknown"
	}
}

func (c *Config) fill() error {
	if c.Players <= 0 && c.Playback == nil {
		return fmt.Errorf("simserver: need players")
	}
	if c.Threads < 0 {
		return fmt.Errorf("simserver: negative thread count %d", c.Threads)
	}
	if c.Map == nil && c.MapConfig.Rows == 0 {
		c.MapConfig = worldmap.DefaultConfig()
		c.MapConfig.Seed = c.Seed + 1
	}
	if c.Machine.Cores == 0 {
		c.Machine = costmodel.PaperMachine()
	}
	if c.Strategy == nil {
		c.Strategy = locking.Conservative{}
	}
	if c.DurationS <= 0 {
		c.DurationS = 10
	}
	return nil
}

// LockAggregate summarizes lock-protocol activity across a run.
type LockAggregate struct {
	Moves          int64 // requests executed
	LeafLockOps    int64 // leaf acquisitions including re-locks
	ParentLockOps  int64
	DistinctLeaves int64 // sum over requests of distinct leaves locked
}

// AvgDistinctLeavesPerRequest returns the Fig. 7(b) metric.
func (l *LockAggregate) AvgDistinctLeavesPerRequest() float64 {
	if l.Moves == 0 {
		return 0
	}
	return float64(l.DistinctLeaves) / float64(l.Moves)
}

// RelockFraction returns the share of leaf lock operations that re-locked
// an already-counted leaf within one request (§5.1: "At 31 and 63
// areanodes, 40% and 30% of leaves are relocked").
func (l *LockAggregate) RelockFraction() float64 {
	if l.LeafLockOps == 0 {
		return 0
	}
	return 1 - float64(l.DistinctLeaves)/float64(l.LeafLockOps)
}

// Result is one simulated run's complete measurement set.
type Result struct {
	Players int
	// Threads is Config.Threads: 0 for the sequential server.
	Threads   int
	Strategy  string
	NumLeaves int
	DurationS float64

	PerThread []metrics.Breakdown
	Avg       metrics.Breakdown
	Trace     []PhaseSpan
	FrameLog  *metrics.FrameLog
	Resp      metrics.ResponseStats
	Locks     LockAggregate

	Frames   uint64
	Requests int64
	// Migrations counts balancer-driven client→thread moves.
	Migrations int64

	// World is the final game state, exposed so the conformance suite can
	// compare end-of-run entity tables across engines.
	World *game.World
}

// ResponseRate returns replies/sec — the paper's primary throughput
// metric.
func (r *Result) ResponseRate() float64 { return r.Resp.Rate() }

// ResponseTimeMs returns the mean request→reply latency in ms.
func (r *Result) ResponseTimeMs() float64 { return r.Resp.MeanLatencyMs() }

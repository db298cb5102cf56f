package server

import (
	"fmt"
	"time"

	"qserve/internal/balance"
	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/transport"
)

// Config parameterizes the live engine.
type Config struct {
	// World is the game state; required.
	World *game.World
	// Conns are the server's datagram endpoints, one per thread: exactly
	// max(Threads, 1) entries. Connection requests may arrive at any of
	// them; gameplay traffic arrives at the owning thread's endpoint.
	Conns []transport.Conn
	// Threads is the worker count. 0 is the paper's sequential server:
	// one thread with no region locks, so Strategy, Balance and Stealing
	// do nothing. N >= 1 is the multithreaded server on N threads with
	// region locks; 1 is Fig. 4's parallel code on one thread. Negative
	// counts are rejected.
	Threads int
	// Strategy selects the region-lock scheme; Conservative by default.
	Strategy locking.Strategy
	// MaxClients bounds the session size. Default 256.
	MaxClients int
	// ClientTimeout evicts clients silent for this long. Default 15s.
	ClientTimeout time.Duration
	// Balance configures dynamic client→thread rebalancing (two or more
	// threads). Off by default, preserving the paper's static assignment.
	Balance balance.Policy

	// Stealing enables conflict-aware work-stealing request execution
	// (two or more threads): workers place their clients' move commands
	// in per-worker frame pools, drain their own pool first, then steal
	// pending requests from other workers instead of idling at the
	// request barrier. A request whose region is contended is parked and
	// retried, so stolen work rarely blocks on region locks. Off by
	// default: the paper's figures model static assignment, and stealing
	// is the ablation arm (`qbench -exp lockwall`). Per-client request
	// order — the only order the wire protocol can observe — is
	// preserved; see DESIGN.md §10.
	Stealing bool

	// WatchdogDeadline arms the frame watchdog (any thread count): a
	// worker stuck in its request or reply phase longer than this is
	// wedged, and the server crashes with WedgeExitCode so its supervisor
	// restarts it from the last checkpoint (DESIGN.md §7). Zero disables
	// the watchdog.
	WatchdogDeadline time.Duration

	// FrameBudget is the overload ladder's target frame duration: frames
	// over budget for shedTripFrames consecutive frames raise the shed
	// level, frames under budget for shedClearFrames lower it. Zero
	// disables overload shedding. Adjustable at runtime via
	// SetFrameBudget.
	FrameBudget time.Duration

	// Record, when non-nil, receives the session's deterministic input
	// stream — ticks, committed moves, connects/disconnects, migrations
	// and shed decisions — for later bit-identical replay (see
	// internal/replay and DESIGN.md §11). Nil in production unless
	// recording was requested; the taps are branch-predictable nil
	// checks when off.
	Record Recorder

	// Checkpoint, when non-nil, captures durable world checkpoints at the
	// reply barrier every Writer-configured interval (DESIGN.md §12). The
	// capture runs on the frame master after all replies committed — the
	// phase where the entity table is read-only — so the snapshot is
	// race-free by construction and allocation-free in steady state. The
	// engine drives Begin/AddClient/Commit; the writer flushes off-thread.
	Checkpoint *checkpoint.Writer

	// Restore, when non-nil, seeds the engine from a recovered session
	// (replay.Recover): World already holds the restored entity table;
	// Restore carries the client identities to park for reconnection and
	// the allocation counters to resume from.
	Restore *RestoreState

	// Clock, when non-nil, replaces time.Now for the world-physics dt
	// computation only (the single wall-clock input that reaches frame
	// logic). The replayer injects a virtual clock here and advances it
	// by recorded tick dts, reproducing the original World.Time
	// evolution exactly. Metrics, timeouts, and select deadlines keep
	// using the real clock.
	Clock func() time.Time

	// Shared, when non-nil, is the cross-instance frame-scratch pool
	// (DESIGN.md §13): the engine borrows its per-frame buffers (receive
	// buffer, reply scratch, visibility index, sweep buffers) from the
	// pool while active and parks them when idle, so a process running
	// thousands of mostly idle matches holds warm buffers only for the
	// active ones. Nil keeps the classic behavior: the engine owns its
	// buffers for life.
	Shared *SharedBufs

	// Hooks are test seams; nil in production.
	Hooks Hooks
}

// timeNow is the frame-logic clock: Config.Clock when set, else
// time.Now. Only the world-physics dt may consult it — everything else
// (metrics, staleness, select timeouts) stays on the real clock so a
// frozen virtual clock cannot stall the server.
func (c *Config) timeNow() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

// Hooks are test seams: fault injection for the chaos tests, and the
// client placement and overload cap the scheduling and shed tests force.
// All fields optional; production leaves them zero.
type Hooks struct {
	// PreExec runs on the executing thread right before a move command
	// executes. The wedge/panic tests use it to stall or crash a thread at
	// a precisely known point (before any region lock is taken).
	PreExec func(thread int, clientID uint16)
	// PreReply runs on the owning thread right before a client's snapshot
	// is formed: the reply-phase counterpart of PreExec.
	PreReply func(thread int, clientID uint16)
	// Wedged, when set, receives the watchdog's detections instead of the
	// crash, and the server runs on.
	Wedged func(WedgeRecord)
	// BatchDelay, when positive, has the frame master hold the frame
	// open for this long before the world update, so other threads'
	// selects can return and join the frame — the live counterpart of
	// simserver's BatchDelayNs (the paper's §5.2 "wait for a period of
	// time before starting the frame" suggestion). Multi-thread frames
	// are a precondition for work stealing to engage, so the stealing
	// stress tests set it.
	BatchDelay time.Duration
	// Assign, when set, replaces BlockAssign as the map from a new
	// client's join index to its owning thread. The paper's static block
	// assignment puts join index i on thread i*Threads/MaxClients; tests
	// set RoundRobinAssign to split a few clients across threads, or pin
	// every client to one thread.
	Assign func(joinIdx, threads, maxClients int) int
	// OverloadEntityCap, when positive, replaces overloadEntityCap as the
	// per-snapshot visible-entity cap at shed level 2+.
	OverloadEntityCap int
}

func (c *Config) fill() error {
	if c.World == nil {
		return fmt.Errorf("server: config has no world")
	}
	if c.Threads < 0 {
		return fmt.Errorf("server: negative thread count %d", c.Threads)
	}
	if len(c.Conns) != max(c.Threads, 1) {
		return fmt.Errorf("server: %d conns for %d threads", len(c.Conns), c.Threads)
	}
	if c.Strategy == nil {
		c.Strategy = locking.Conservative{}
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 256
	}
	if c.ClientTimeout <= 0 {
		c.ClientTimeout = 15 * time.Second
	}
	return nil
}

// BlockAssign implements the paper's §3.1 policy: "We assign players to
// threads in a block fashion." Join index i lands in the block-sized
// bucket for thread i*threads/maxClients.
func BlockAssign(joinIdx, threads, maxClients int) int {
	if threads <= 1 {
		return 0
	}
	if joinIdx >= maxClients {
		return joinIdx % threads
	}
	return joinIdx * threads / maxClients
}

// RoundRobinAssign is the alternative interleaved policy.
func RoundRobinAssign(joinIdx, threads, _ int) int {
	if threads <= 0 {
		return 0
	}
	return joinIdx % threads
}

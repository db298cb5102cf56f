package server

import "qserve/internal/protocol"

// Recorder taps the frame pipeline at the points that fully determine
// world evolution: world-physics ticks (with their exact dt), every
// committed move command (at the commit point, so the recorded stream
// respects the deterministic per-client commit order the work-stealing
// scheduler guarantees — DESIGN.md §10), connects/disconnects (which
// allocate and free entity slots and rotate the spawn cursor), plus the
// informational migration and shed decisions. internal/replay implements
// it; engines call it only when Config.Record is non-nil.
//
// Threading: methods may be called concurrently from any worker thread.
// Calls for one client are serialized by the engine's own per-client
// commit discipline; cross-client interleaving is whatever serialization
// the recorder's internal lock observes, which is a legal execution
// order (see DESIGN.md §11 for the exact fidelity contract).
type Recorder interface {
	// RecordTick logs a world-physics step of exactly dtNs nanoseconds.
	// Called by the frame master after RunWorldFrame ran (not on frames
	// where the minimum-tick gate skipped physics).
	RecordTick(dtNs int64)
	// RecordMove logs a committed move command. Called at the commit
	// point, after the seq filter accepted the command and ExecuteMove
	// returned. cmd must be copied before returning.
	RecordMove(clientID uint16, seq uint32, cmd *protocol.MoveCmd)
	// RecordConnect logs a successful player admission (not reconnects,
	// which do not touch the world).
	RecordConnect(clientID uint16, entID int32, thread int, name string)
	// RecordDisconnect logs a player removal, client-requested or
	// server-side (stale timeout, panic eviction).
	RecordDisconnect(clientID uint16, reason uint8)
	// RecordMigrate logs an applied client→thread migration.
	RecordMigrate(clientID uint16, to int)
	// RecordShed logs the overload ladder's level after a frame.
	// Implementations should deduplicate repeats.
	RecordShed(level int)
	// RecordFrameEnd marks the end of frame processing (a span
	// delimiter for the shrinker; no world effect).
	RecordFrameEnd(frame uint64)
	// Items returns how many records have been logged so far — the
	// redo-log cut point a checkpoint taken now must carry.
	Items() int
}

// Disconnect reasons recorded by the engines. The replayer treats them
// all as a player removal at the recorded position; the reason is kept
// for triage.
const (
	DiscReasonClient  uint8 = 0 // client sent Disconnect
	DiscReasonTimeout uint8 = 1 // stale sweep (ClientTimeout)
	DiscReasonEvict   uint8 = 2 // panic containment / watchdog eviction
)

package server

import (
	"time"

	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/protocol"
)

// This file implements the allocation-free reply pipeline. The paper's
// breakdowns show reply processing (T/Tx) costing roughly twice the
// request phase and dominating frame time at high player counts (§4,
// Fig. 4–5); paying a heap allocation per entity list, per delta
// baseline, and per datagram on every client every frame multiplies that
// dominant cost with GC pressure. Instead, each server thread owns one
// ReplyScratch whose buffers are reused across clients and frames, and
// each client retains its last-sent entity set in a Baseline that
// advances by swapping buffers with the scratch — zero steady-state
// allocations, byte-identical wire output (see golden_test.go).
//
// Ownership rules:
//
//   - ReplyScratch is owned by exactly one server thread and must not be
//     shared; the datagram FormSnapshot returns aliases the scratch and
//     is valid only until the next FormSnapshot call on the same scratch
//     (transports copy before Send returns — see transport.Conn).
//   - Baseline is owned by the reply phase of the thread that owns its
//     client. Invalidate may additionally be called from the request
//     phase of the owning thread; the frame barriers order the two
//     phases.

// Baseline is one client's retained delta-compression reference: the
// entity set most recently sent to that client. The zero value is an
// empty baseline (next snapshot sends every visible entity as DNew).
type Baseline struct {
	states []protocol.EntityState
	// tag identifies the snapshot that established this baseline: that
	// snapshot's Frame+1, or 0 for an empty baseline. It travels on the
	// wire as Snapshot.BaseFrame so the client can detect a missed
	// snapshot (its table tag won't match) instead of silently applying a
	// delta against the wrong reference.
	tag uint32
}

// Invalidate empties the baseline so the next snapshot carries full
// entity state. Called when delta continuity is lost: a reconnect (the
// client forgot its state) or a sequence gap wide enough that the client
// may have missed the snapshots the baseline assumes it holds.
func (b *Baseline) Invalidate() {
	b.states = b.states[:0]
	b.tag = 0
}

// Len returns the number of entity states in the baseline.
func (b *Baseline) Len() int { return len(b.states) }

// Tag returns the baseline's continuity tag (0 when empty).
func (b *Baseline) Tag() uint32 { return b.tag }

// States returns the retained entity states backing the baseline. The
// slice aliases internal storage: callers may only read it, and only
// while the owning thread is quiescent (the DES durability capture reads
// it at the frame barrier).
func (b *Baseline) States() []protocol.EntityState { return b.states }

// ReplyStats reports one FormSnapshot call's volume: datagram size,
// buffer growths (zero in steady state), entities truncated by the
// overload cap, the snapshot-formation work counters, and the wall time
// spent assembling the visible-entity set (SnapNs), which the engines
// aggregate into the frame breakdown's snapshot-merge sub-phase.
type ReplyStats struct {
	Bytes  int
	Allocs int
	Capped int
	SnapNs int64
	Work   game.SnapshotWork
}

// ReplyScratch is one server thread's reusable reply-phase state: the
// entity-state slice fed to AppendVisible's dst, the delta and event
// lists, the encoder, and the outgoing datagram buffer. The zero value
// is ready to use; buffers grow to the high-water mark and are then
// reused forever.
type ReplyScratch struct {
	states []protocol.EntityState
	deltas []protocol.EntityDelta
	events []protocol.GameEvent
	writer protocol.Writer
	snap   protocol.Snapshot // persistent, so &rs.snap never escapes to the heap
}

// FormSnapshot builds and encodes one client's snapshot reply without
// allocating in steady state. The returned datagram aliases the scratch
// and is valid only until the next call; base advances to the newly
// built entity set by buffer swap (the old baseline buffer becomes the
// next call's scratch), so callers never copy entity states.
//
// vi is the frame's shared visibility index over w: the visible set is
// assembled by filtering the index's precomputed entity-state cache
// (byte-identical to the naive scan, World.BuildSnapshot) instead of
// re-scanning and re-encoding the entity table per client. The states
// are copied into the scratch, so the baseline-swap ownership dance
// below never aliases the shared index.
//
// entityLimit, when positive, caps the visible-entity set (the overload
// ladder's level-2 degradation). Truncation stays delta-consistent: the
// baseline advances to the truncated set, so entities dropped by the cap
// produce DRemove deltas and reappear as DNew when the cap lifts.
//
//qvet:phase=reply
func (rs *ReplyScratch) FormSnapshot(
	w *game.World, vi *game.VisIndex, viewer *entity.Entity, base *Baseline,
	frame, ackSeq, serverTime uint32,
	backlog, frameEvents []protocol.GameEvent,
	entityLimit int,
) ([]byte, ReplyStats) {
	capStates := cap(rs.states)
	capDeltas := cap(rs.deltas)
	capEvents := cap(rs.events)
	capBuf := cap(rs.writer.Buf)

	snapStart := time.Now()
	states, work := vi.AppendVisible(viewer, rs.states[:0])
	snapNs := time.Since(snapStart).Nanoseconds()
	capped := 0
	if entityLimit > 0 && len(states) > entityLimit {
		capped = len(states) - entityLimit
		states = states[:entityLimit]
	}
	rs.states = states
	rs.deltas = protocol.AppendDeltaEntities(rs.deltas[:0], base.states, states)
	rs.events = append(rs.events[:0], backlog...)
	rs.events = append(rs.events, frameEvents...)

	rs.snap = protocol.Snapshot{
		Frame:      frame,
		AckSeq:     ackSeq,
		BaseFrame:  base.tag,
		ServerTime: serverTime,
		You:        game.PlayerStateOf(viewer),
		Delta:      rs.deltas,
		Events:     rs.events,
	}
	rs.writer.Reset()
	if err := protocol.Encode(&rs.writer, &rs.snap); err != nil {
		return nil, ReplyStats{SnapNs: snapNs, Work: work}
	}

	// Advance the baseline by swapping buffers: base now holds the entity
	// set just sent, and the retired baseline buffer becomes the scratch
	// for the next client. Equivalent to copying states into base, minus
	// the copy.
	base.states, rs.states = rs.states, base.states
	base.tag = frame + 1

	st := ReplyStats{Bytes: len(rs.writer.Buf), Capped: capped, SnapNs: snapNs, Work: work}
	if cap(base.states) > capStates {
		st.Allocs++
	}
	if cap(rs.deltas) > capDeltas {
		st.Allocs++
	}
	if cap(rs.events) > capEvents {
		st.Allocs++
	}
	if cap(rs.writer.Buf) > capBuf {
		st.Allocs++
	}
	return rs.writer.Buf, st
}

// ReferenceFormSnapshot is the pre-pooling reply path, kept as the
// correctness oracle: fresh allocations for every list and the encoder,
// baseline advanced by copy. The golden-stream test asserts FormSnapshot
// produces byte-identical datagrams, and BenchmarkReplyPhaseAllocs
// measures the two paths against each other. It returns the datagram,
// the new baseline slice, and the new baseline tag.
func ReferenceFormSnapshot(
	w *game.World, viewer *entity.Entity, baseline []protocol.EntityState, baseTag uint32,
	frame, ackSeq, serverTime uint32,
	backlog, frameEvents []protocol.GameEvent,
) ([]byte, []protocol.EntityState, uint32) {
	states, _ := w.BuildSnapshot(viewer, nil)
	delta := protocol.DeltaEntities(baseline, states)
	var events []protocol.GameEvent
	events = append(events, backlog...)
	events = append(events, frameEvents...)
	var wr protocol.Writer
	if err := protocol.Encode(&wr, &protocol.Snapshot{
		Frame:      frame,
		AckSeq:     ackSeq,
		BaseFrame:  baseTag,
		ServerTime: serverTime,
		You:        game.PlayerStateOf(viewer),
		Delta:      delta,
		Events:     events,
	}); err != nil {
		return nil, states, baseTag
	}
	return wr.Bytes(), states, frame + 1
}

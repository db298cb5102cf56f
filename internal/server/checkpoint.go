package server

import (
	"time"

	"qserve/internal/checkpoint"
	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/metrics"
)

// This file is the engine side of durable world state (DESIGN.md §12):
// the capture glue the frame-end sweep (endFrame) calls at the reply
// barrier, and the restore seeding that parks a recovered session's
// clients for reconnection. The DES has its own copy of the capture call so it can
// charge the cost model.

// RestoreState seeds an engine from a recovered session (see
// replay.Recover). Config.World already holds the restored entity table;
// this carries everything that lives beside the world: the frame to
// resume numbering from, the join/client-id allocation counters, and the
// surviving clients to park for reconnection.
type RestoreState struct {
	// Frame is the last recovered frame; the engine resumes at Frame+1 so
	// checkpoint file names and replay logs stay monotonic across the
	// restart.
	Frame uint64
	// JoinIdx and NextClientID resume the assignment and id allocators.
	JoinIdx      int
	NextClientID uint16
	// Clients are the survivors: parked with no transport address until
	// their player reconnects, aged out by the stale reaper otherwise.
	Clients []checkpoint.ClientRec
	// RecoveryNs is the measured restore + redo-tail time, surfaced in
	// the metrics breakdown.
	RecoveryNs int64
}

// captureCheckpoint runs one Begin/AddClient/Commit cycle against the
// frame-stable world. Called by the frame master after every reply
// committed and after the frame's record taps ran, so the redo-log cut
// point (RecItems) names exactly the items whose effects the snapshot
// contains; a session without a recorder checkpoints with cut 0, meaning
// "replay the whole log". buf is the caller's reused client-snapshot
// scratch; the return value is the (possibly grown) buffer to stash back.
//
// The walk is read-only over the entity table and allocation-free in
// steady state — the same discipline as the reply phase it runs behind.
//
//qvet:phase=reply
//qvet:noalloc
func captureCheckpoint(wr *checkpoint.Writer, world *game.World, clients *clientTable,
	buf []*client, rec Recorder, frame uint64, joinIdx int, bd *metrics.Breakdown) []*client {
	t0 := time.Now()
	items := 0
	if rec != nil {
		items = rec.Items()
	}
	meta := checkpoint.Meta{
		Frame:        frame,
		RecItems:     uint64(items),
		JoinIdx:      joinIdx,
		NextClientID: clients.nextIDSnapshot(),
	}
	if !wr.Begin(world, meta) {
		bd.CheckpointSkips++
		return buf
	}
	buf = clients.snapshotInto(buf[:0])
	for _, c := range buf {
		wr.AddClient(checkpoint.ClientRec{
			ID:           c.id,
			EntID:        int32(c.entID),
			Thread:       uint8(c.thread),
			LastSeq:      c.lastSeq,
			RepliedFrame: c.repliedFrame.Load(),
			LoadNs:       c.loadNs.Load(),
			Name:         c.name,
			Addr:         c.addrStr,
			BaselineTag:  c.baseline.tag,
			Baseline:     c.baseline.states,
		})
	}
	st := wr.Commit()
	bd.Checkpoints++
	bd.CheckpointNs += time.Since(t0).Nanoseconds()
	bd.CheckpointBytes += int64(st.Bytes)
	if st.Full {
		bd.CheckpointFullBytes += int64(st.Bytes)
	} else {
		bd.CheckpointDeltaBytes += int64(st.Bytes)
	}
	return buf
}

// nextIDSnapshot reads the id allocator for the checkpoint meta record.
func (t *clientTable) nextIDSnapshot() uint16 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextID
}

// parkRestoredClients installs a recovered session's survivors into the
// client table: each keeps its checkpointed identity (id, entity, seq
// state, thread assignment clamped to the restarted server's width) but
// has no transport address until its player reconnects. seqResync covers
// a peer whose own seq space moved while the server was down; the
// baseline starts invalid — the resumed client explicitly cannot rely on
// delta continuity across a restart. Returns the parked clients for the
// caller to route (session.restore).
func parkRestoredClients(clients *clientTable, rs *RestoreState, threads int, now time.Time) []*client {
	parked := make([]*client, 0, len(rs.Clients))
	for i := range rs.Clients {
		rec := &rs.Clients[i]
		c := &client{
			id:      rec.ID,
			entID:   entity.ID(rec.EntID),
			name:    rec.Name,
			addrStr: rec.Addr,
			thread:  int(rec.Thread),
		}
		if threads > 0 {
			c.thread %= threads
		} else {
			c.thread = 0
		}
		c.lastSeq = rec.LastSeq
		c.repliedFrame.Store(rec.RepliedFrame)
		c.loadNs.Store(rec.LoadNs)
		c.seqResync.Store(true)
		c.awaitingResume.Store(true)
		c.touch(now)
		if clients.addRestored(c) {
			parked = append(parked, c)
		}
	}
	clients.setNextID(rs.NextClientID)
	return parked
}

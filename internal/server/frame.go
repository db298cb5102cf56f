package server

import (
	"cmp"
	"time"

	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// The live frame rules (DESIGN.md §2.1): every protocol rule of the
// server frame, written against a session and the worker running it. The
// engine's frame body (Parallel.runFrame) owns the frame's *shape* — who
// blocks in select, where the barriers fall, which locks a move executes
// under — and calls in here for everything the wire can observe.
// Configurations differ only as data: a nil worker locker, a nil mux,
// flags that are never set, a single worker.

// minWorldTick rate-limits the world-physics phase like QuakeWorld's
// sv_mintic: frames arriving faster than this skip the P stage.
const minWorldTick = 12 * time.Millisecond

// baselineGapFrames is the widest reply-frame gap a client may fall
// behind before its delta baseline is invalidated: past it, the client
// has likely lost the snapshots the baseline assumes it holds, so the
// next reply resends full entity state. Ack 0 means "no information" and
// never invalidates.
const baselineGapFrames = 64

// worldTick is the frame master's world-physics phase (P). The dt comes
// from the frame-logic clock (Config.Clock when replaying) — the only
// wall-clock input world evolution sees.
//
//qvet:phase=physics
func (s *session) worldTick(w *worker) {
	t0 := time.Now()
	now := s.cfg.timeNow()
	if dt := now.Sub(s.lastTick); dt >= minWorldTick {
		s.lastTick = now
		res := s.world.RunWorldFrame(dt.Seconds())
		if r := s.cfg.Record; r != nil {
			r.RecordTick(dt.Nanoseconds())
		}
		s.appendEvents(res.Events)
	}
	w.bd.Charge(metrics.CompWorld, time.Since(t0).Nanoseconds())
}

// appendEvents adds game events to the global state buffer.
func (s *session) appendEvents(events []game.Event) {
	if len(events) == 0 {
		return
	}
	wire := wireEvents(events)
	s.globalMu.Lock()
	s.frameEvents = append(s.frameEvents, wire...)
	s.globalMu.Unlock()
}

// dispatch decodes one datagram and applies the connection protocol
// inline — those requests "are associated with the connection or
// disconnection protocols ... or other facilities that do not affect
// gameplay". A move command from a connected client is handed back for
// the executor (execPoolEntry: admitMove, ExecuteMove, commitMove).
func (s *session) dispatch(w *worker, data []byte, from transport.Addr) (*client, *protocol.Move) {
	t0 := time.Now()
	msg, err := protocol.Decode(data)
	var c *client
	if err == nil {
		c = s.clients.lookup(from)
	}
	w.bd.Charge(metrics.CompRecv, time.Since(t0).Nanoseconds())
	switch m := msg.(type) {
	case *protocol.Move:
		if c == nil {
			return nil, nil
		}
		// A parked survivor that never noticed the crash keeps sending
		// moves from its old address (it matched the byKey index to get
		// here): that is a resume like any other.
		if c.awaitingResume.Load() && !s.resume(c, from) {
			return nil, nil
		}
		return c, m
	case *protocol.Connect:
		s.handleConnect(w, c, m, from)
	case *protocol.Disconnect:
		if c != nil && s.removeClient(w, c, DiscReasonClient) {
			s.send(w, from, &protocol.Disconnected{Reason: "bye"})
		}
	case *protocol.Ping:
		s.send(w, from, &protocol.Pong{Nonce: m.Nonce})
	}
	return nil, nil
}

// admitMove decides whether a move command executes, and against which
// entity; nil drops the datagram. It filters duplicates and reordered
// datagrams — UDP may replay an old move, and executing it would rewind
// the player's intent (the engine's netchan does the same with its
// sequence check). Wild forward jumps are corrupted datagrams and are
// dropped *without* advancing lastSeq, so they cannot poison the filter.
// A resumed client's first move re-seeds lastSeq instead (seqResync): its
// peer's seq space may have moved arbitrarily while the server was down.
//
// On admission the worker publishes which client it is serving, for the
// watchdog and panic containment, and runs the test seam — before any
// region lock is taken, so an injected wedge never strands locks.
// Liveness (ent.Active, Health) is checked inside ExecuteMove under the
// region guard — checking here would race with another thread's
// concurrent damage or removal.
//
//qvet:phase=exec
func (s *session) admitMove(w *worker, c *client, m *protocol.Move) *entity.Entity {
	if c.gone.Load() {
		return nil
	}
	if m.Seq != 0 && (seqOlder(m.Seq, c.lastSeq) || seqWild(m.Seq, c.lastSeq)) &&
		!c.seqResync.Load() {
		return nil
	}
	if m.Ack != 0 && c.repliedFrame.Load()-m.Ack > baselineGapFrames {
		// The client is acknowledging a frame far behind the last reply we
		// sent it: delta continuity is lost. Invalidation here (request
		// phase) is ordered before the reply phase by the frame barrier.
		c.baseline.Invalidate()
	}
	ent := s.world.Ents.Get(c.entID)
	if ent == nil {
		return nil
	}
	w.serving.Store(int32(c.id) + 1)
	if s.cfg.Hooks.PreExec != nil {
		s.cfg.Hooks.PreExec(w.id, c.id)
	}
	return ent
}

// commitMove records an executed move in the client's reply state: the
// commit point the recorder taps, never reached by a parked execution
// (parked entries re-execute and would otherwise be recorded twice).
//
//qvet:phase=exec
func (s *session) commitMove(w *worker, c *client, m *protocol.Move) {
	c.replyPending = true
	c.lastSeq = m.Seq
	c.seqResync.Store(false)
	c.touch(time.Now())
	if r := s.cfg.Record; r != nil {
		r.RecordMove(c.id, m.Seq, &m.Cmd)
	}
	// The client's forwarded datagram (if this was one) has landed; lift
	// the migration freeze.
	c.fwdFrame.Store(0)
	w.bd.ExecCmds++
}

// handleConnect answers a Connect from a sender whose existing session,
// if any, is known. Everyone who ends up with a session — a retransmitted
// or restarted client, a restore-parked survivor, a new player — gets
// the same Accept; only a genuinely new address can be refused.
func (s *session) handleConnect(w *worker, known *client, m *protocol.Connect, from transport.Addr) {
	c, refusal := known, ""
	switch {
	case s.draining.Load():
		c, refusal = nil, "server shutting down"
	case c != nil && c.awaitingResume.Load():
		// Survivor calling back from its checkpointed address.
		s.resume(c, from)
	case c != nil:
		// Duplicate connect (retransmit or client restart): re-accept
		// idempotently, and flag the delta baseline for reset — a
		// restarted client has no memory of the entity states the baseline
		// assumes. The flag (not a direct Invalidate) keeps the baseline
		// single-owner: connects may arrive on any thread's endpoint, and
		// the owning thread consumes the flag in its reply phase.
		c.resetBaseline.Store(true)
	default:
		if c = s.clients.lookupResume(m.Name); c != nil {
			// Survivor reconnecting from a new address (NAT rebind across
			// the restart): matched by name; no new client slot is consumed.
			s.resume(c, from)
		} else {
			c, refusal = s.admit(w, m, from)
		}
	}
	if c == nil {
		s.send(w, from, &protocol.Reject{Reason: refusal})
		return
	}
	// Every field is stable from admission on, so the Accept is correct
	// even when the resume itself is still queued for the barrier.
	s.send(w, from, &protocol.Accept{
		ClientID: c.id,
		EntityID: int32(c.entID),
		MapName:  s.world.Map.Name,
		Addr:     s.cfg.Conns[c.thread].LocalAddr().String(),
	})
}

// admit spawns and registers a new player, or returns why not.
func (s *session) admit(w *worker, m *protocol.Connect, from transport.Addr) (*client, string) {
	if s.shed.current() >= shedRejectNew {
		// Overload ladder level 3: protect the clients already connected.
		w.bd.BusyRejects++
		return nil, "busy"
	}
	if s.clients.count() >= s.cfg.MaxClients {
		return nil, "server full"
	}
	ent, err := s.spawnPlayer(w)
	if err != nil {
		return nil, "no entity slots"
	}
	assign := BlockAssign
	if s.cfg.Hooks.Assign != nil {
		assign = s.cfg.Hooks.Assign
	}
	c := &client{
		entID:  ent.ID,
		name:   m.Name,
		addr:   from,
		thread: assign(int(s.joinIdx.Add(1)-1), len(s.workers), s.cfg.MaxClients),
	}
	c.touch(time.Now())
	if !s.clients.add(c) {
		s.removePlayer(w, ent.ID)
		return nil, "server full"
	}
	if p := s.workers[c.thread].port; p != nil {
		// Pin the client's datagrams to its owning thread regardless of
		// which endpoint they arrive at; migrations re-route later.
		p.Route(c.key)
	}
	if r := s.cfg.Record; r != nil {
		r.RecordConnect(c.id, int32(ent.ID), c.thread, m.Name)
	}
	return c, ""
}

// spawnPlayer spawns a player; on a locking worker, under a region lock
// covering the spawn location, keeping the tree mutation safe against
// concurrent request processing.
func (s *session) spawnPlayer(w *worker) (*entity.Entity, error) {
	if w.locker != nil {
		guard := w.locker.Acquire(s.world.Map.Bounds, nil)
		defer guard.Release()
	}
	return s.world.SpawnPlayer()
}

func (s *session) removePlayer(w *worker, id entity.ID) {
	if w.locker != nil {
		guard := w.locker.Acquire(s.world.Map.Bounds, nil)
		defer guard.Release()
	}
	s.world.RemovePlayer(id)
}

// removeClient drops a client and frees its player: the one removal path
// behind disconnects, the stale reaper and fault eviction. It reports
// false, removing nothing, when the client's execution claim could not
// be won (claimForRemoval); periodic callers retry on later frames.
func (s *session) removeClient(w *worker, c *client, reason uint8) bool {
	if !s.claimForRemoval(w, c) {
		return false
	}
	s.clients.remove(c)
	if p := s.workers[c.thread].port; p != nil {
		p.Unroute(c.key)
	}
	s.removePlayer(w, c.entID)
	if r := s.cfg.Record; r != nil {
		r.RecordDisconnect(c.id, reason)
	}
	return true
}

// evictClient removes a client the containment paths decided is at
// fault, notifying it with a Disconnected message.
func (s *session) evictClient(w *worker, c *client, reason string) {
	if !s.removeClient(w, c, DiscReasonEvict) {
		return
	}
	s.send(w, c.addr, &protocol.Disconnected{Reason: reason})
	s.faultEvictions.Add(1)
}

// resume lifts a restore-parked client's parked state and reports
// whether it is lifted now. With a single worker nothing else can be
// reading the client's identity, so the resume applies in place; with
// several it is queued for the frame barrier (see pendingResume) and the
// datagram that triggered it must not act on the client yet.
func (s *session) resume(c *client, from transport.Addr) bool {
	if len(s.workers) == 1 {
		s.applyResume(c, from)
		return true
	}
	s.resumeMu.Lock()
	s.pendingResume = append(s.pendingResume, resumePending{c: c, addr: from})
	s.resumeMu.Unlock()
	return false
}

// applyResumes completes the queued reconnect handshakes. Frame master
// only, at the barrier.
func (s *session) applyResumes() {
	s.resumeMu.Lock()
	pending := s.pendingResume
	s.pendingResume = nil
	s.resumeMu.Unlock()
	for _, pr := range pending {
		s.applyResume(pr.c, pr.addr)
	}
}

// applyResume completes a parked client's reconnect handshake: rebind to
// the address its player now calls from (re-routing the mux), flag the
// delta baseline for reset, and lift the parked state. The seqResync flag
// set at park time stays set until the owner accepts the first move.
func (s *session) applyResume(c *client, addr transport.Addr) {
	// Retransmitted Connects queue duplicates; the first application
	// clears awaitingResume and the rest fall through here. A client
	// reaped or evicted while queued stays untouched.
	if !c.awaitingResume.Load() || s.clients.lookupID(c.id) != c {
		return
	}
	old := c.key
	s.clients.rebind(c, addr)
	if p := s.workers[c.thread].port; p != nil {
		if old != c.key {
			p.Unroute(old)
		}
		p.Route(c.key)
	}
	c.resetBaseline.Store(true)
	c.awaitingResume.Store(false)
	c.touch(time.Now())
}

// replyBatch is how many reply datagrams a worker queues before it sends
// them: one sendmmsg on a Linux UDP socket. The sweep's tail goes at its
// end (flushReplies).
const replyBatch = 16

// sendReplies forms and transmits the snapshots for the worker's clients
// that requested during the frame — reply processing "involves reading
// global state but writing only private (per-client) reply messages". vi
// is the frame's visibility index, which the engine builds (or helps
// build) first: every snapshot below is a merge over it instead of a
// fresh table scan. The datagrams queue in the worker's batch, which
// goes out every replyBatch replies; the caller flushes the rest.
//
//qvet:phase=reply
func (s *session) sendReplies(w *worker, vi *game.VisIndex, frame uint32) {
	sc := w.scratch
	s.globalMu.Lock()
	sc.frameEv = append(sc.frameEv[:0], s.frameEvents...)
	s.globalMu.Unlock()
	serverTime := uint32(s.world.Time * 1000)
	level := s.shed.current()
	entityLimit := 0
	if level >= shedEntityCap {
		entityLimit = cmp.Or(s.cfg.Hooks.OverloadEntityCap, overloadEntityCap)
	}
	sc.clientBuf = s.clients.forThreadBuf(sc.clientBuf, w.id, func(c *client) {
		if !c.replyPending {
			return
		}
		if level >= shedFarHalf && c.shedFar.Load() && frame&1 == 1 {
			// Overload ladder level 1: clients far from the action get
			// every other snapshot. replyPending stays set, so the reply
			// goes out next frame; the skipped snapshot is invisible to
			// delta continuity (the baseline only advances on sends).
			w.bd.RepliesShed++
			return
		}
		c.replyPending = false
		ent := s.world.Ents.Get(c.entID)
		if ent == nil || !ent.Active {
			return
		}
		if c.resetBaseline.Swap(false) {
			c.baseline.Invalidate()
		}
		w.serving.Store(int32(c.id) + 1)
		if s.cfg.Hooks.PreReply != nil {
			s.cfg.Hooks.PreReply(w.id, c.id)
		}
		sc.backlogBuf = c.drainBacklog(sc.backlogBuf[:0])
		data, st := sc.reply.FormSnapshot(s.world, vi, ent, &c.baseline,
			frame, c.lastSeq, serverTime, sc.backlogBuf, sc.frameEv, entityLimit)
		w.serving.Store(0)
		w.bd.SnapMergeNs += st.SnapNs
		if data == nil {
			return
		}
		s.bytesOut.Add(int64(len(data)))
		sc.replies.Add(c.addr, data)
		if sc.replies.Len() >= replyBatch {
			w.flushReplies()
		}
		w.bd.ReplyBytes += int64(st.Bytes)
		w.bd.ReplyDatagrams++
		w.bd.ReplyAllocs += int64(st.Allocs)
		w.bd.EntitiesCapped += int64(st.Capped)
		c.markReplied(frame)
		s.replies.Add(1)
	})
}

// flushReplies sends the reply datagrams queued in the worker's batch.
func (w *worker) flushReplies() {
	w.bd.ReplySendCalls += int64(w.scratch.replies.Flush(w.conn))
}

// endFrame is the frame master's sweep after all replies: it distributes
// the frame's events to clients that were not replied to, reaps silent
// clients, feeds the overload ladder, closes the frame in the record,
// captures a due checkpoint, and clears the global state buffer ("the
// master thread clears this global state buffer before signaling the end
// of the current frame").
func (s *session) endFrame(w *worker, frame uint64, frameT0 time.Time) {
	s.globalMu.Lock()
	events := s.frameEvents
	// Truncate in place: events stays valid because it is consumed below,
	// before the next frame lets any thread append to the buffer again.
	s.frameEvents = s.frameEvents[:0]
	s.globalMu.Unlock()

	sc := w.scratch
	now := time.Now().UnixNano()
	var stale []*client
	sc.clientBuf = s.clients.forEachBuf(sc.clientBuf, func(c *client) {
		if c.repliedFrame.Load() != uint32(frame) {
			c.queueEvents(events)
		}
		if now-c.lastActive.Load() > int64(s.cfg.ClientTimeout) {
			stale = append(stale, c)
		}
	})
	for _, c := range stale {
		s.removeClient(w, c, DiscReasonTimeout)
	}

	// Overload ladder: feed the frame's duration, then refresh the
	// shed-far flags while a shed level is active.
	level := s.shed.observe(time.Since(frameT0).Nanoseconds())
	if level >= shedFarHalf {
		s.shedClients, s.shedDists = markShedFar(s.world, s.clients, s.shedClients, s.shedDists)
	}
	if r := s.cfg.Record; r != nil {
		r.RecordShed(int(level))
		r.RecordFrameEnd(frame)
	}
	if wr := s.cfg.Checkpoint; wr != nil && wr.Due(frame) {
		// Reply barrier: every reply for this frame has been sent and no
		// request is in flight, so the world is frame-stable. Runs after
		// the record taps so the checkpoint's redo-log cut names exactly
		// the state the snapshot contains (DESIGN.md §12).
		sc.clientBuf = captureCheckpoint(wr, s.world, s.clients, sc.clientBuf,
			s.cfg.Record, frame, int(s.joinIdx.Load()), &w.bd)
	}
}

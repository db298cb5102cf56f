//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"syscall"

	"qserve/internal/botclient"
	"qserve/internal/geom"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

const (
	frameMs = 33 // one client frame; also the Msec of every move
	frameNs = int64(frameMs) * 1e6
	// phaseGroups spreads the open-loop clients over the client frame in
	// bursts. Uniformly spread arrivals keep the sequential engine's Rx
	// phase open and make its response time bistable (bench/README.md).
	phaseGroups     = 8
	resendNs        = int64(100e6) // closed loop: give up waiting, send again
	answerTimeoutNs = int64(1e9)   // a move older than this counts as unanswered
	resyncEveryNs   = int64(250e6)
	// tableEvery: protocol.ApplyDelta rebuilds a map and re-sorts the whole
	// entity table per call, ~20 us at 256 players against the ~35 us the
	// server spends on the reply; on every client the generator would
	// out-eat the server it measures.
	tableEvery = 8
)

// schedule fixes a run's instants (ns since epoch) before it starts, so
// shards decide by comparing timestamps and never talk to each other.
type schedule struct {
	t0        int64 // first move due
	warmEnd   int64 // measured window opens
	windowEnd int64 // measured window closes; nothing is sent after it
	closed    bool  // closed loop, else open loop at 30 Hz
}

func (sc *schedule) inWindow(t int64) bool { return t >= sc.warmEnd && t < sc.windowEnd }

// dueTime is when open-loop client i owes its k-th move.
func dueTime(t0 int64, client int, k int64) int64 {
	return t0 + int64(client%phaseGroups)*frameNs/phaseGroups + k*frameNs
}

type pendingMove struct {
	seq     uint32
	at      int64 // send time (closed loop) or due time (open loop)
	counted bool  // at lies in the measured window
}

// client is one simulated player: a socket, a navigator, the moves it is
// waiting on, and the oracle's view of what the server has told it.
type client struct {
	idx   int
	fd    int
	to    syscall.SockaddrInet4 // where moves go: Accept.Addr
	name  string
	match string

	rng  *rand.Rand
	m    *worldmap.Map
	nav  *botclient.Navigator // made at the first snapshot, once pos is known
	yaw  float64
	pos  geom.Vec3
	seq  uint32
	move protocol.Move
	wr   protocol.Writer

	pending  []pendingMove // oldest first
	lastSend int64

	accepted  bool
	rejected  string
	haveSnap  bool
	lastAck   uint32
	lastFrame uint32
	// tableTag is the delta-continuity tag, as in botclient: Frame+1 of
	// the snapshot the client's entity table reflects. Every client
	// checks it; one in tableEvery also keeps the table itself and puts
	// each delta through protocol.ApplyDelta.
	tableTag   uint32
	keepsTable bool
	table      []protocol.EntityState
	lastResync int64
	moved      float64 // distance covered inside the window
}

func newClient(idx int, seed int64, m *worldmap.Map, match string) (*client, error) {
	fd, err := udpSocket()
	if err != nil {
		return nil, err
	}
	return &client{
		idx:   idx,
		fd:    fd,
		name:  fmt.Sprintf("q%d", idx),
		match: match,
		rng:   rand.New(rand.NewSource(seed*1000003 + int64(idx))),
		m:     m,

		keepsTable: idx%tableEvery == 0,
	}, nil
}

func (c *client) close() { syscall.Close(c.fd) }

func (c *client) sendConnect(to *syscall.SockaddrInet4) error {
	c.wr.Reset()
	err := protocol.Encode(&c.wr, &protocol.Connect{
		Name: c.name, FrameMs: frameMs, ProtocolVer: protocol.Version, Match: c.match,
	})
	if err != nil {
		return err
	}
	return syscall.Sendto(c.fd, c.wr.Bytes(), 0, to)
}

// nextCmd steers along the waypoint graph from the last position the
// server confirmed. Every move is one full client frame at full speed,
// whatever the wall-clock pacing, so the work a move asks for is fixed.
func (c *client) nextCmd() protocol.MoveCmd {
	cmd := protocol.MoveCmd{Forward: 320, Msec: frameMs}
	if c.nav != nil {
		wish := geom.VecToAngles(c.nav.Steer(c.pos).Sub(c.pos)).Y
		c.yaw = geom.NormalizeAngle(c.yaw + geom.AngleDelta(c.yaw, wish)*0.5)
	}
	cmd.Yaw = protocol.AngleToWire(c.yaw)
	if c.rng.Float64() < 0.05 {
		cmd.Buttons |= protocol.BtnFire
	}
	if c.rng.Float64() < 0.02 {
		cmd.Buttons |= protocol.BtnJump
	}
	return cmd
}

// sendMove sends the next move. at is the instant latency counts from:
// now for a closed loop, the due time for an open one.
func (c *client) sendMove(at, now int64, sc *schedule, st *loadStats, tr *tracer) {
	c.seq++
	req := reqID(c.idx, c.seq)
	c.move = protocol.Move{Seq: c.seq, Ack: c.lastFrame, Cmd: c.nextCmd()}
	tr.begin(spanEncode, req)
	c.wr.Reset()
	err := protocol.Encode(&c.wr, &c.move)
	tr.end()
	if err == nil {
		tr.begin(spanSend, req)
		err = syscall.Sendto(c.fd, c.wr.Bytes(), 0, &c.to)
		tr.end()
	}
	if err != nil {
		st.sendErrs++ // the move stays pending and times out as unanswered
	}
	counted := sc.inWindow(at)
	if counted {
		st.moves++
	}
	c.pending = append(c.pending, pendingMove{seq: c.seq, at: at, counted: counted})
	c.lastSend = now
}

// expire drops moves nobody answered within the limit.
func (c *client) expire(now int64, st *loadStats) {
	n := 0
	for n < len(c.pending) && now-c.pending[n].at > answerTimeoutNs {
		if c.pending[n].counted {
			st.unanswered++
		}
		n++
	}
	if n > 0 {
		c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	}
}

// answer retires every pending move a snapshot acknowledging ack
// answers. The server sends one reply per client per frame, so when it
// executed several of a client's moves in one frame that reply answers
// them all: a move is answered by the first snapshot with AckSeq >= Seq.
func (c *client) answer(ack uint32, now int64, sc *schedule, st *loadStats, tr *tracer) bool {
	c.expire(now, st)
	n := 0
	for n < len(c.pending) && c.pending[n].seq <= ack {
		p := c.pending[n]
		if p.counted {
			st.lat = append(st.lat, now-p.at)
		}
		tr.add(spanRequest, p.at, now, reqID(c.idx, p.seq))
		n++
	}
	if n == 0 {
		return false
	}
	c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	if sc.inWindow(now) {
		st.replies++
	}
	return true
}

// observe is the reply oracle for one decoded snapshot: ordering, delta
// continuity under botclient's BaseFrame rule, and position sanity.
// counting says whether distance covered goes towards the moved check.
func (c *client) observe(s *protocol.Snapshot, counting bool) violation {
	if c.haveSnap && (s.AckSeq < c.lastAck || s.Frame < c.lastFrame) {
		return vOrder
	}
	c.haveSnap, c.lastAck, c.lastFrame = true, s.AckSeq, s.Frame

	switch {
	case s.BaseFrame == 0:
		c.table = c.table[:0] // full state: the delta stands alone
	case s.BaseFrame != c.tableTag:
		return vContinuity // built against a snapshot this client never got
	}
	if c.keepsTable {
		updated, err := protocol.ApplyDelta(c.table, s.Delta)
		if err != nil {
			c.table, c.tableTag = c.table[:0], 0
			return vDelta
		}
		c.table = updated
	}
	c.tableTag = s.Frame + 1

	// Wire coordinates are 1/8-unit fixed point, so allow one unit.
	if !c.m.Bounds.Expand(1).Contains(s.You.Origin) {
		return vBounds
	}
	if c.nav == nil {
		c.nav = botclient.NewNavigator(c.m, rand.New(rand.NewSource(c.rng.Int63())))
	} else if counting {
		c.moved += c.pos.Dist(s.You.Origin)
	}
	c.pos = s.You.Origin
	return vNone
}

// onDatagram decodes, validates and matches one datagram; it reports
// whether the datagram answered a pending move.
func (c *client) onDatagram(data []byte, now int64, sc *schedule, st *loadStats, tr *tracer) bool {
	tr.begin(spanDecode, 0)
	msg, err := protocol.Decode(data)
	snap, isSnap := msg.(*protocol.Snapshot)
	if isSnap {
		tr.endReq(reqID(c.idx, snap.AckSeq))
	} else {
		tr.end()
	}
	if err != nil {
		st.violations[vDecode]++
		return false
	}
	if !isSnap {
		if _, dup := msg.(*protocol.Accept); !dup { // a retried Connect is accepted twice
			st.violations[vUnexpected]++
		}
		return false
	}
	if v := c.observe(snap, sc.inWindow(now)); v != vNone {
		st.violations[v]++
		if (v == vContinuity || v == vDelta) && now-c.lastResync > resyncEveryNs {
			// As botclient does: a repeated Connect makes the server
			// restart the delta stream from full state.
			c.lastResync = now
			_ = c.sendConnect(&c.to) // a lost resync is retried at the next violation
		}
	}
	return c.answer(snap.AckSeq, now, sc, st, tr)
}

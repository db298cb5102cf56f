// Package botclient implements the automatic players used to load the
// server: "To automate the benchmarking procedure we replace human with
// automatic players" (§4, following the methodology of the authors'
// benchmarking paper). A bot connects over the real protocol, navigates
// the map's waypoint graph, fights other players it can see, sends one
// move command per client frame (30–40ms), and measures response time —
// the interval between sending a request and receiving the matching
// reply.
package botclient

import (
	"fmt"
	"math/rand"
	"time"

	"qserve/internal/geom"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// Config parameterizes one bot.
type Config struct {
	Name string
	// Conn is the bot's own endpoint.
	Conn transport.Conn
	// Server is the address connection requests go to.
	Server transport.Addr
	// Map provides the waypoint graph for navigation.
	Map *worldmap.Map
	// FrameMs is the client frame duration; default 33 (30 fps).
	FrameMs int
	// Seed drives the bot's behavioural randomness.
	Seed int64
	// FireProb is the per-frame probability of firing when an enemy is
	// visible. Default 0.15.
	FireProb float64
	// ConnectTimeout bounds the connection handshake. Default 5s.
	ConnectTimeout time.Duration
	// Match names the instance to join on a match-manager server
	// (DESIGN.md §13). Empty asks the lobby to assign one; solo servers
	// ignore it.
	Match string
}

// Bot is one automatic player.
type Bot struct {
	cfg    Config
	rng    *rand.Rand
	conn   transport.Conn
	server transport.Addr
	nav    *Navigator

	clientID uint16
	entityID int32

	seq       uint32
	lastFrame uint32         // newest server frame seen, echoed as Move.Ack
	sendTimes [256]time.Time // ring keyed by seq&0xFF
	pos       geom.Vec3
	yaw       float64
	health    int16
	enemies   []protocol.EntityState
	allStates []protocol.EntityState // reconstructed entity table
	// tableTag is the delta-continuity tag the entity table corresponds
	// to: the frame after the snapshot that produced it. A snapshot whose
	// BaseFrame differs was built against a baseline this bot never saw
	// (a lost snapshot) — its delta must be discarded and a resync
	// requested. Tag 0 means "no table yet": the next snapshot must carry
	// BaseFrame 0 (full state).
	tableTag   uint32
	lastResync time.Time

	// Stats observed by the bot.
	Resp       metrics.ResponseStats
	Snapshots  int64
	Kills      int64 // kill events where this bot was the actor
	Deaths     int64
	Resyncs    int64   // deltas discarded for baseline discontinuity
	Moved      float64 // total distance travelled, a liveness check
	lastOrigin geom.Vec3

	writer  protocol.Writer
	recvBuf []byte
}

// New creates a bot; call Connect then Run.
func New(cfg Config) (*Bot, error) {
	if cfg.Conn == nil || cfg.Server == nil || cfg.Map == nil {
		return nil, fmt.Errorf("botclient: conn, server, and map are required")
	}
	if cfg.FrameMs <= 0 {
		cfg.FrameMs = 33
	}
	if cfg.FireProb == 0 {
		cfg.FireProb = 0.15
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 5 * time.Second
	}
	return &Bot{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		conn:   cfg.Conn,
		server: cfg.Server,
		nav:    NewNavigator(cfg.Map, rand.New(rand.NewSource(cfg.Seed^0x5eed))),
		// Receive buffer above MaxDatagram: tolerate oversized snapshots
		// from servers with bigger MTU budgets.
		recvBuf: make([]byte, 4*transport.MaxDatagram),
	}, nil
}

// Connect performs the join handshake, retrying the request until the
// server accepts or the timeout expires.
func (b *Bot) Connect() error {
	deadline := time.Now().Add(b.cfg.ConnectTimeout)
	for time.Now().Before(deadline) {
		b.send(b.server, &protocol.Connect{
			Name:        b.cfg.Name,
			FrameMs:     uint8(b.cfg.FrameMs),
			ProtocolVer: protocol.Version,
			Match:       b.cfg.Match,
		})
		limit := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(limit) {
			n, _, err := b.conn.Recv(b.recvBuf, time.Until(limit))
			if err != nil {
				break
			}
			msg, err := protocol.Decode(b.recvBuf[:n])
			if err != nil {
				continue
			}
			switch m := msg.(type) {
			case *protocol.Accept:
				b.clientID = m.ClientID
				b.entityID = m.EntityID
				addr, err := b.conn.Resolve(m.Addr)
				if err != nil {
					return fmt.Errorf("botclient: bad assigned addr %q: %w", m.Addr, err)
				}
				b.server = addr
				return nil
			case *protocol.Reject:
				return fmt.Errorf("botclient: rejected: %s", m.Reason)
			}
		}
	}
	return fmt.Errorf("botclient: connect timeout")
}

// Run drives the bot until the stop channel closes, then disconnects.
// Between moves it blocks in Recv until the next frame's deadline, so
// each reply is stamped when it arrives, not at the next frame.
func (b *Bot) Run(stop <-chan struct{}) {
	frame := time.Duration(b.cfg.FrameMs) * time.Millisecond
	start := time.Now()
	defer func() {
		b.Resp.DurationS = time.Since(start).Seconds()
		b.send(b.server, &protocol.Disconnect{})
	}()
	next := start
	for {
		select {
		case <-stop:
			return
		default:
		}
		b.sendMove()
		next = next.Add(frame)
		if now := time.Now(); next.Before(now) {
			next = now.Add(frame) // fell behind: skip the missed frames
		}
		b.receive(next)
		time.Sleep(time.Until(next)) // a receive error returns early
	}
}

// Step performs one client frame synchronously (for tests and
// deterministic drivers): drain replies, then send a move.
func (b *Bot) Step() {
	b.receive(time.Time{})
	b.sendMove()
}

// Drain consumes queued replies without sending a move — the final
// settle step of tests that must observe a quiescent server.
func (b *Bot) Drain() {
	b.receive(time.Time{})
}

func (b *Bot) sendMove() {
	cmd := b.decideMove()
	b.seq++
	b.sendTimes[b.seq&0xFF] = time.Now()
	b.send(b.server, &protocol.Move{Seq: b.seq, Ack: b.lastFrame, Cmd: cmd})
}

// decideMove is the bot brain: steer along the waypoint path, face
// enemies, and fire opportunistically.
func (b *Bot) decideMove() protocol.MoveCmd {
	var cmd protocol.MoveCmd
	cmd.Msec = uint8(b.cfg.FrameMs)
	cmd.Forward = 320

	target := b.nav.Steer(b.pos)
	wishYaw := geom.VecToAngles(target.Sub(b.pos)).Y

	// Combat: face the nearest visible enemy and fire sometimes.
	if len(b.enemies) > 0 {
		nearest := b.enemies[0]
		bestD := b.pos.DistSq(nearest.Origin())
		for _, e := range b.enemies[1:] {
			if d := b.pos.DistSq(e.Origin()); d < bestD {
				bestD = d
				nearest = e
			}
		}
		aim := nearest.Origin().Sub(b.pos)
		if aim.Len() < 700 {
			wishYaw = geom.VecToAngles(aim).Y
			if b.rng.Float64() < b.cfg.FireProb {
				cmd.Buttons |= protocol.BtnFire
			}
			if b.rng.Float64() < 0.3 {
				cmd.Impulse = uint8(1 + b.rng.Intn(2)) // switch weapons
			}
		}
	}
	// Smooth the turn.
	b.yaw += geom.AngleDelta(b.yaw, wishYaw) * 0.5
	b.yaw = geom.NormalizeAngle(b.yaw)
	cmd.Yaw = protocol.AngleToWire(b.yaw)
	if b.rng.Float64() < 0.02 {
		cmd.Buttons |= protocol.BtnJump
	}
	return cmd
}

// receive consumes server messages until deadline, updating position,
// visible enemies, and response-time statistics. A zero deadline (or
// one already past) consumes only what is queued.
func (b *Bot) receive(deadline time.Time) {
	for {
		var wait time.Duration
		if !deadline.IsZero() {
			wait = max(time.Until(deadline), 0) // negative would block forever
		}
		n, _, err := b.conn.Recv(b.recvBuf, wait)
		if err != nil {
			return
		}
		msg, err := protocol.Decode(b.recvBuf[:n])
		if err != nil {
			continue
		}
		snap, ok := msg.(*protocol.Snapshot)
		if !ok {
			continue
		}
		b.Snapshots++
		b.Resp.Replies++
		b.lastFrame = snap.Frame
		if lag := b.seq - snap.AckSeq; lag < 256 {
			if t := b.sendTimes[snap.AckSeq&0xFF]; !t.IsZero() {
				b.Resp.Record(time.Since(t).Seconds())
			}
		}
		b.Moved += b.pos.Dist(snap.You.Origin)
		b.pos = snap.You.Origin
		b.health = snap.You.Health
		b.updateEnemies(snap)
		for _, ev := range snap.Events {
			switch {
			case ev.Kind == 1 && int32(ev.Actor) == b.entityID: // EvKill
				b.Kills++
			case ev.Kind == 1 && int32(ev.Subject) == b.entityID:
				b.Deaths++
			}
		}
	}
}

// updateEnemies applies the snapshot's entity delta to the bot's view of
// other players, enforcing delta continuity via the BaseFrame tag.
func (b *Bot) updateEnemies(snap *protocol.Snapshot) {
	switch {
	case snap.BaseFrame == 0:
		// Full state: the server's baseline was empty, so the delta stands
		// alone. Reset the table before applying.
		b.allStates = b.allStates[:0]
	case snap.BaseFrame != b.tableTag:
		// The delta was computed against a snapshot this bot never
		// received (lost on the wire). Applying it would corrupt the
		// table; discard it and ask the server for full state.
		b.resync()
		return
	}
	updated, err := protocol.ApplyDelta(b.allStates, snap.Delta)
	if err != nil {
		// Delta stream confused despite a matching tag (corruption that
		// survived decode): resync from scratch.
		b.allStates = b.allStates[:0]
		b.tableTag = 0
		b.resync()
		return
	}
	b.allStates = updated
	b.tableTag = snap.Frame + 1
	b.enemies = b.enemies[:0]
	for _, s := range b.allStates {
		if s.Class == 1 && int32(s.ID) != b.entityID { // ClassPlayer
			b.enemies = append(b.enemies, s)
		}
	}
}

// resync asks the server to restart the delta stream by re-sending the
// connection request: the server re-accepts idempotently and flags the
// bot's baseline for reset, so the next snapshot carries full state
// (BaseFrame 0). Rate-limited — under sustained loss one resync per
// round-trip window is enough.
func (b *Bot) resync() {
	b.Resyncs++
	now := time.Now()
	if now.Sub(b.lastResync) < 250*time.Millisecond {
		return
	}
	b.lastResync = now
	b.send(b.server, &protocol.Connect{
		Name:        b.cfg.Name,
		FrameMs:     uint8(b.cfg.FrameMs),
		ProtocolVer: protocol.Version,
		Match:       b.cfg.Match,
	})
}

// EntityTable returns the bot's reconstructed entity table and its
// continuity tag (for end-state consistency checks in tests).
func (b *Bot) EntityTable() ([]protocol.EntityState, uint32) {
	return b.allStates, b.tableTag
}

func (b *Bot) send(to transport.Addr, msg any) {
	b.writer.Reset()
	if err := protocol.Encode(&b.writer, msg); err != nil {
		return
	}
	_ = b.conn.Send(to, b.writer.Bytes())
}

// Pos returns the bot's last known (server-confirmed) position.
func (b *Bot) Pos() geom.Vec3 { return b.pos }

// EntityID returns the server-assigned entity ID.
func (b *Bot) EntityID() int32 { return b.entityID }

// ClientID returns the server-assigned client ID (valid after Connect).
func (b *Bot) ClientID() uint16 { return b.clientID }

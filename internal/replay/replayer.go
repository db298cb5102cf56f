package replay

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"qserve/internal/balance"
	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// LiveConfig selects which live engine a replay (or recording session)
// runs on. Threads == 0 is the sequential engine; otherwise the
// parallel engine with that many workers. Balance forces the
// every-frame migration policy the conformance suite uses; Stealing
// turns on the work-stealing request scheduler. None of these may
// change what the world computes — that is exactly the claim a replay
// checks.
type LiveConfig struct {
	Threads  int
	Balance  bool
	Stealing bool

	// Checkpoint, when non-nil, is handed to the engine as
	// server.Config.Checkpoint, so the driven session captures durable
	// checkpoints at its frame barriers — the crash-recovery acceptance
	// arm records a session with this set and then recovers from the
	// newest checkpoint plus the log tail (DESIGN.md §12). Checkpointing
	// never changes what the world computes.
	Checkpoint *checkpoint.Writer
}

// String names the configuration the way the conformance tables do.
func (c LiveConfig) String() string {
	if c.Threads == 0 {
		return "sequential"
	}
	return fmt.Sprintf("parallel/threads=%d/balance=%v/steal=%v", c.Threads, c.Balance, c.Stealing)
}

// Result is what one replay run produced: the world-state digest, the
// normalized per-client reply-stream digest, and fidelity counters
// against the log's end record.
type Result struct {
	Config LiveConfig
	// TableDigest folds the final world state (see TableDigest).
	TableDigest uint64
	// StreamDigest folds every client's normalized reply stream in
	// recorded-client order.
	StreamDigest uint64
	// Replies is the total number of snapshots folded into StreamDigest.
	Replies int
	// Moves/Ticks count the log items actually driven.
	Moves int
	Ticks int
	// EndDigestMatch reports whether TableDigest equals the digest the
	// recorder stamped at capture time. True whenever the recording was
	// lockstep-driven; a free-running recording may have committed a
	// different (but equally legal) serialization than the one its log
	// preserves, so for those this is informational (DESIGN.md §11).
	EndDigestMatch bool
	// IDMismatches counts connects whose replayed entity ID differed
	// from the recorded one — same caveat as EndDigestMatch.
	IDMismatches int
	// World is the final world, for inspection beyond the digest.
	World *game.World
}

// replayAwait bounds how long the driver waits for any single engine
// response before declaring the replay wedged.
const replayAwait = 10 * time.Second

// tickPingLimit bounds the ping retries used to push a pending virtual
// tick through the engine's frame loop.
const tickPingLimit = 10000

// vclock is the injected frame-logic clock: a fixed base plus an
// atomically advanced offset. It only moves when the driver applies a
// recorded tick, so the engine's world physics runs exactly the
// recorded dts and nothing else.
type vclock struct {
	base time.Time
	off  atomic.Int64
}

func newVclock() *vclock {
	// Any fixed base works; engines only ever subtract two readings.
	return &vclock{base: time.Unix(1<<20, 0)}
}

func (v *vclock) now() time.Time   { return v.base.Add(time.Duration(v.off.Load())) }
func (v *vclock) advance(ns int64) { v.off.Add(ns) }

// rclient is one lockstep protocol client: at most one request of its
// own ever in flight, every received snapshot folded into its stream
// digest.
type rclient struct {
	conn   transport.Conn
	server transport.Addr
	buf    []byte
	w      protocol.Writer
	sd     *streamDigest
	gone   bool
}

// liveDriver owns one live engine plus the lockstep clients driving it.
// Both the replayer and the recording session driver are thin loops
// over it; the driver enforces the global-lockstep discipline (one
// command in flight server-wide) that makes commit order equal drive
// order on every engine.
type liveDriver struct {
	world   *game.World
	net     *transport.Network
	eng     *server.Parallel
	vc      *vclock
	rec     *Recorder
	ctl     *rclient
	clients map[uint16]*rclient
	order   []uint16
	nonce   uint64
	conns   int
}

func newLiveDriver(m *worldmap.Map, seed int64, lc LiveConfig, rec *Recorder, maxClients int) (*liveDriver, error) {
	world, err := game.NewWorld(game.Config{Map: m, Seed: seed})
	if err != nil {
		return nil, err
	}
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	conns := make([]transport.Conn, max(lc.Threads, 1))
	for i := range conns {
		c, err := net.Listen(fmt.Sprintf("srv:%d", i))
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	pol := balance.Policy{}
	if lc.Balance {
		pol = balance.Policy{Enabled: true, EveryFrame: true, MaxMigrations: 4}
	}
	cfg := server.Config{
		World:      world,
		Conns:      conns,
		Threads:    lc.Threads,
		MaxClients: maxClients,
		// The driver paces the session; wall-clock silence between
		// lockstep rounds must never evict a replayed client.
		ClientTimeout: time.Hour,
		Balance:       pol,
		Stealing:      lc.Stealing,
		Record:        rec,
		Checkpoint:    lc.Checkpoint,
		Clock:         nil,
	}
	vc := newVclock()
	cfg.Clock = vc.now
	eng, err := server.NewParallel(cfg)
	if err != nil {
		return nil, err
	}
	ctlConn, err := net.Listen("rp-ctl")
	if err != nil {
		return nil, err
	}
	d := &liveDriver{
		world: world,
		net:   net,
		eng:   eng,
		vc:    vc,
		rec:   rec,
		ctl: &rclient{
			conn:   ctlConn,
			server: transport.MemAddr("srv:0"),
			buf:    make([]byte, 4*transport.MaxDatagram),
		},
		clients: make(map[uint16]*rclient),
	}
	d.eng.Start()
	return d, nil
}

func (d *liveDriver) stop() { d.eng.Stop() }

func (c *rclient) send(msg any) error {
	c.w.Reset()
	if err := protocol.Encode(&c.w, msg); err != nil {
		return err
	}
	return c.conn.Send(c.server, c.w.Bytes())
}

// recv returns the next decodable datagram before the deadline,
// skipping undecodable ones (none should occur on the mem transport).
func (c *rclient) recv(deadline time.Time) (any, error) {
	for {
		n, _, err := c.conn.Recv(c.buf, time.Until(deadline))
		if err != nil {
			return nil, err
		}
		msg, err := protocol.Decode(c.buf[:n])
		if err != nil {
			continue
		}
		if snap, ok := msg.(*protocol.Snapshot); ok && c.sd != nil {
			c.sd.addSnapshot(c.buf[:n], snap.Frame, snap.BaseFrame)
		}
		return msg, nil
	}
}

// connect joins a new lockstep client under the caller's key and
// returns the server's Accept.
func (d *liveDriver) connect(key uint16, name string) (*protocol.Accept, error) {
	conn, err := d.net.Listen(fmt.Sprintf("rp-bot:%d.%d", key, d.conns))
	if err != nil {
		return nil, err
	}
	d.conns++
	c := d.clients[key]
	if c == nil || !c.gone {
		if c != nil {
			return nil, fmt.Errorf("replay: client %d connected twice", key)
		}
		c = &rclient{sd: newStreamDigest()}
		d.clients[key] = c
		d.order = append(d.order, key)
	}
	// A reconnect under the same recorded key keeps its stream digest:
	// the replies are one continuous per-client stream.
	c.conn = conn
	c.server = transport.MemAddr("srv:0")
	c.buf = make([]byte, 4*transport.MaxDatagram)
	c.gone = false
	if err := c.send(&protocol.Connect{Name: name, FrameMs: 33, ProtocolVer: protocol.Version}); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(replayAwait)
	for {
		msg, err := c.recv(deadline)
		if err != nil {
			return nil, fmt.Errorf("replay: client %d connect: %w", key, err)
		}
		switch m := msg.(type) {
		case *protocol.Accept:
			addr, err := c.conn.Resolve(m.Addr)
			if err != nil {
				return nil, fmt.Errorf("replay: client %d accept addr %q: %w", key, m.Addr, err)
			}
			c.server = addr
			return m, nil
		case *protocol.Reject:
			return nil, fmt.Errorf("replay: client %d rejected: %s", key, m.Reason)
		}
	}
}

// move sends one command and blocks until its acknowledging snapshot
// arrives (folding every snapshot received on the way).
func (d *liveDriver) move(key uint16, seq uint32, cmd *protocol.MoveCmd) error {
	c := d.clients[key]
	if c == nil || c.gone {
		return fmt.Errorf("replay: move for unconnected client %d", key)
	}
	// Ack 0 means "no delta information": it never triggers the
	// baseline-gap resync, whose threshold depends on absolute frame
	// numbers the engines do not agree on.
	if err := c.send(&protocol.Move{Seq: seq, Ack: 0, Cmd: *cmd}); err != nil {
		return err
	}
	deadline := time.Now().Add(replayAwait)
	for {
		msg, err := c.recv(deadline)
		if err != nil {
			return fmt.Errorf("replay: client %d awaiting ack of seq %d: %w", key, seq, err)
		}
		switch m := msg.(type) {
		case *protocol.Snapshot:
			if m.AckSeq == seq {
				return nil
			}
		case *protocol.Disconnected:
			return fmt.Errorf("replay: client %d evicted awaiting seq %d: %s", key, seq, m.Reason)
		}
	}
}

// disconnect retires a client and waits for the server's confirmation,
// so the entity removal has committed before the next log item runs.
func (d *liveDriver) disconnect(key uint16) error {
	c := d.clients[key]
	if c == nil || c.gone {
		return fmt.Errorf("replay: disconnect for unconnected client %d", key)
	}
	if err := c.send(&protocol.Disconnect{}); err != nil {
		return err
	}
	deadline := time.Now().Add(replayAwait)
	for {
		msg, err := c.recv(deadline)
		if err != nil {
			return fmt.Errorf("replay: client %d disconnect: %w", key, err)
		}
		if _, ok := msg.(*protocol.Disconnected); ok {
			c.gone = true
			return nil
		}
	}
}

// tick advances the virtual clock by dtNs and then drives the engine
// until the world update actually ran. A Pong alone does not prove the
// tick happened — ping and move datagrams drain in the same request
// phase, which runs after the frame's world-update stage — so the
// driver pings until the recorder's tick counter moves: the tick tap
// fires inside RunWorldFrame's caller, which is ordered before every
// later commit. Each recorded tick becomes exactly one RunWorldFrame
// call with exactly the recorded dt, preserving the original piecewise
// integration.
func (d *liveDriver) tick(dtNs int64) error {
	before := d.rec.TickCount()
	d.vc.advance(dtNs)
	deadline := time.Now().Add(replayAwait)
	for i := 0; i < tickPingLimit; i++ {
		d.nonce++
		if err := d.ctl.send(&protocol.Ping{Nonce: d.nonce}); err != nil {
			return err
		}
		for {
			msg, err := d.ctl.recv(deadline)
			if err != nil {
				return fmt.Errorf("replay: tick ping: %w", err)
			}
			if p, ok := msg.(*protocol.Pong); ok && p.Nonce == d.nonce {
				break
			}
		}
		if d.rec.TickCount() > before {
			return nil
		}
	}
	return errors.New("replay: world tick did not run after vclock advance")
}

// streams folds the per-client stream digests, in first-connect order,
// into the session stream digest, and returns the total reply count.
func (d *liveDriver) streams() (uint64, int) {
	digests := make(map[uint16]uint64, len(d.clients))
	replies := 0
	for key, c := range d.clients {
		digests[key] = c.sd.sum()
		replies += int(c.sd.replies)
	}
	return combineStreams(d.order, digests), replies
}

// ReplayLive re-runs a recorded log through one live engine
// configuration and digests what the run produced. The log's items are
// driven strictly in order with at most one command in flight
// server-wide, so the replayed commit order is the log order on every
// engine — sequential, parallel at any width, balanced or stealing —
// and two replays of the same log are bit-identical everywhere the
// wire can observe.
func ReplayLive(lg *Log, lc LiveConfig) (*Result, error) {
	if err := lg.Validate(); err != nil {
		return nil, err
	}
	// The replay records itself: the recorder doubles as the tick probe
	// the driver synchronizes on, and its log is the canonical
	// serialization of this replay.
	rec, err := NewRecorder(lg.Map, lg.WorldSeed)
	if err != nil {
		return nil, err
	}
	rec.Reserve(len(lg.Items) + len(lg.Items)/2)
	d, err := newLiveDriver(lg.Map, lg.WorldSeed, lc, rec, len(lg.Clients())+2)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	res := &Result{Config: lc}
	for i := range lg.Items {
		it := &lg.Items[i]
		var err error
		switch it.Kind {
		case KindConnect:
			var acc *protocol.Accept
			acc, err = d.connect(it.Client, it.Name)
			if err == nil && acc.EntityID != it.Ent {
				res.IDMismatches++
			}
		case KindMove:
			err = d.move(it.Client, it.Seq, &it.Cmd)
			res.Moves++
		case KindDisconnect:
			// Every recorded removal — voluntary, timeout, or eviction —
			// replays as a clean disconnect: the world effect
			// (RemovePlayer at this point in the commit order) is
			// identical.
			err = d.disconnect(it.Client)
		case KindTick:
			err = d.tick(it.DtNs)
			res.Ticks++
		case KindMigrate, KindShed, KindFrame:
			// Scheduling decisions, not world inputs: the replay engine
			// makes its own. Recorded for diagnosis only.
		}
		if err != nil {
			return nil, fmt.Errorf("replay: item %d (%s): %w", i, kindName(it.Kind), err)
		}
	}
	d.stop()

	res.TableDigest = TableDigest(d.world)
	res.StreamDigest, res.Replies = d.streams()
	res.EndDigestMatch = lg.HasEnd && lg.EndDigest == res.TableDigest
	res.World = d.world
	return res, nil
}

// SessionScript describes a scripted lockstep session for RecordSession:
// Players clients connect in index order, then Moves rounds run, each
// round one virtual tick followed by one command per player (player i's
// step-k command is Cmd(i, k)).
type SessionScript struct {
	Players int
	Moves   int
	// Cmd returns player i's command at step k; required.
	Cmd func(player int, step int64) protocol.MoveCmd
	// Name returns player i's join name; defaults to "rec-i".
	Name func(player int) string
	// TickNs is the virtual dt per round; defaults to 16ms.
	TickNs int64
}

// RecordSession runs a scripted session against a live engine in global
// lockstep, recording it. Because the drive discipline keeps one
// command in flight server-wide, the recorded log's order IS the commit
// order, and the returned Result's digests are exactly what any replay
// of the log must reproduce — including on every other engine.
func RecordSession(m *worldmap.Map, seed int64, lc LiveConfig, sc SessionScript) (*Log, *Result, error) {
	if sc.Players <= 0 || sc.Cmd == nil {
		return nil, nil, errors.New("replay: RecordSession needs Players > 0 and a Cmd script")
	}
	tickNs := sc.TickNs
	if tickNs == 0 {
		tickNs = 16 * int64(time.Millisecond)
	}
	rec, err := NewRecorder(m, seed)
	if err != nil {
		return nil, nil, err
	}
	rec.Reserve(sc.Players*(sc.Moves+1) + sc.Moves + 16)
	d, err := newLiveDriver(m, seed, lc, rec, sc.Players+2)
	if err != nil {
		return nil, nil, err
	}
	defer d.stop()

	// Driver keys are the server-assigned client IDs — the same IDs the
	// recorder's taps log — so the stream digest here is keyed and
	// ordered identically to a future replay's.
	keys := make([]uint16, sc.Players)
	for i := 0; i < sc.Players; i++ {
		name := fmt.Sprintf("rec-%d", i)
		if sc.Name != nil {
			name = sc.Name(i)
		}
		// Two-phase join: learn the server-assigned ID from a probe key,
		// impossible without parsing Accept — so connect under a
		// provisional key and rebind.
		acc, err := d.connectProbe(name)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = acc.ClientID
	}
	for k := 0; k < sc.Moves; k++ {
		if err := d.tick(tickNs); err != nil {
			return nil, nil, err
		}
		seq := uint32(k + 1)
		for i := 0; i < sc.Players; i++ {
			cmd := sc.Cmd(i, int64(k))
			if err := d.move(keys[i], seq, &cmd); err != nil {
				return nil, nil, err
			}
		}
	}
	d.stop()

	lg := rec.Finish(d.world)
	res := &Result{Config: lc}
	res.TableDigest = TableDigest(d.world)
	res.StreamDigest, res.Replies = d.streams()
	res.EndDigestMatch = lg.EndDigest == res.TableDigest
	res.Moves = sc.Players * sc.Moves
	res.Ticks = sc.Moves
	res.World = d.world
	return lg, res, nil
}

// connectProbe connects a client whose driver key must equal the
// server-assigned client ID (known only from the Accept). It reserves a
// provisional key, performs the handshake, then rebinds the client to
// its real ID.
func (d *liveDriver) connectProbe(name string) (*protocol.Accept, error) {
	// Provisional keys count down from the top of the ID space; server
	// IDs count up from 0, so they cannot collide in any realistic
	// session.
	prov := uint16(0xFFFF) - uint16(len(d.order))
	acc, err := d.connect(prov, name)
	if err != nil {
		return nil, err
	}
	c := d.clients[prov]
	delete(d.clients, prov)
	if _, dup := d.clients[acc.ClientID]; dup {
		return nil, fmt.Errorf("replay: server reissued live client ID %d", acc.ClientID)
	}
	d.clients[acc.ClientID] = c
	d.order[len(d.order)-1] = acc.ClientID
	return acc, nil
}

func kindName(k uint8) string {
	switch k {
	case KindTick:
		return "tick"
	case KindMove:
		return "move"
	case KindConnect:
		return "connect"
	case KindDisconnect:
		return "disconnect"
	case KindMigrate:
		return "migrate"
	case KindShed:
		return "shed"
	case KindFrame:
		return "frame"
	case KindEnd:
		return "end"
	}
	return fmt.Sprintf("kind-%d", k)
}

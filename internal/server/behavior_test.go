package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/protocol"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// rawClient speaks the protocol directly, for tests that need control
// below the bot layer.
type rawClient struct {
	conn transport.Conn
	srv  transport.Addr
	buf  []byte
	w    protocol.Writer
}

// newRawClient opens a raw endpoint at addr ("" picks one) talking to
// the server's first endpoint.
func newRawClient(t *testing.T, net *transport.Network, addr string) *rawClient {
	t.Helper()
	conn, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &rawClient{
		conn: conn,
		srv:  transport.MemAddr("srv:0"),
		buf:  make([]byte, 8192),
	}
}

func (c *rawClient) send(t *testing.T, msg any) {
	t.Helper()
	c.w.Reset()
	if err := protocol.Encode(&c.w, msg); err != nil {
		t.Fatal(err)
	}
	if err := c.conn.Send(c.srv, c.w.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func (c *rawClient) recv(t *testing.T, timeout time.Duration) any {
	t.Helper()
	n, _, err := c.conn.Recv(c.buf, timeout)
	if err != nil {
		return nil
	}
	msg, err := protocol.Decode(c.buf[:n])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return msg
}

// parityEngines are the hosts the protocol-parity table runs under: the
// frame core on one unsynchronised lane, on one locking lane, and on two
// lanes with pooled, stealable execution.
var parityEngines = []struct {
	name     string
	threads  int
	stealing bool
}{
	{"sequential", 0, false},
	{"parallel-1", 1, false},
	{"parallel-2-steal", 2, true},
}

// parityRig is one engine under test plus the raw clients scripted
// against it. Every observation a row makes lands in the transcript, and
// the transcripts must be equal across engines.
type parityRig struct {
	t   *testing.T
	eng Engine
	net *transport.Network
	log []string
}

func (r *parityRig) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *parityRig) session() *session {
	switch e := r.eng.(type) {
	case *Sequential:
		return &e.session
	case *Parallel:
		return &e.session
	}
	r.t.Fatalf("unknown engine %T", r.eng)
	return nil
}

func (r *parityRig) client(addr string) *rawClient { return newRawClient(r.t, r.net, addr) }

// exchange sends one datagram and logs what comes back — the reply's
// kind and protocol-visible fields, or "silence". Like a real client it
// follows Accept.Addr to its owning thread's endpoint.
func (r *parityRig) exchange(c *rawClient, msg any) {
	r.t.Helper()
	c.send(r.t, msg)
	switch m := c.recv(r.t, 150*time.Millisecond).(type) {
	case nil:
		r.logf("silence")
	case *protocol.Accept:
		c.srv = transport.MemAddr(m.Addr)
		r.logf("accept client=%d", m.ClientID)
	case *protocol.Reject:
		r.logf("reject %q", m.Reason)
	case *protocol.Pong:
		r.logf("pong %#x", m.Nonce)
	case *protocol.Disconnected:
		r.logf("disconnected %q", m.Reason)
	case *protocol.Snapshot:
		kind := "delta"
		if m.BaseFrame == 0 {
			kind = "full"
		}
		r.logf("snapshot ack=%d %s", m.AckSeq, kind)
	default:
		r.logf("%T", m)
	}
}

func (r *parityRig) connect(c *rawClient, name string) {
	r.t.Helper()
	r.exchange(c, &protocol.Connect{Name: name, FrameMs: 33})
}

func (r *parityRig) move(c *rawClient, seq, ack uint32) {
	r.t.Helper()
	r.exchange(c, &protocol.Move{Seq: seq, Ack: ack, Cmd: protocol.MoveCmd{Msec: 33, Forward: 320}})
}

// moveUntilAnswered retransmits a move, as a client's tick would, until
// the server answers it: a multi-lane engine completes a parked
// survivor's resume at the frame barrier and drops its moves until then.
func (r *parityRig) moveUntilAnswered(c *rawClient, seq uint32) {
	r.t.Helper()
	for try := 0; try < 20; try++ {
		mark := len(r.log)
		r.move(c, seq, 0)
		if r.log[mark] != "silence" {
			return
		}
		r.log = r.log[:mark]
	}
	r.logf("move %d never answered", seq)
}

func (r *parityRig) clients() { r.logf("clients=%d", r.eng.NumClients()) }

// TestProtocolParity feeds the same scripted datagram sequences to the
// sequential engine, a one-thread parallel engine and a two-thread
// stealing one, and requires the same reply kinds, reject reasons and
// client counts from each: the wire rules live once (frame.go), so no
// host may answer differently.
func TestProtocolParity(t *testing.T) {
	parkedSurvivor := func(cfg *Config) {
		e, err := cfg.World.SpawnPlayer()
		if err != nil {
			panic(err)
		}
		cfg.Restore = &RestoreState{JoinIdx: 1, NextClientID: 8, Clients: []checkpoint.ClientRec{
			{ID: 7, EntID: int32(e.ID), LastSeq: 900, RepliedFrame: 500, Name: "survivor", Addr: "old:0"},
		}}
	}
	rows := []struct {
		name string
		cfg  func(*Config)
		run  func(r *parityRig)
		want []string
	}{
		{
			name: "connect-and-duplicate-connect",
			run: func(r *parityRig) {
				c := r.client("")
				r.connect(c, "dup")
				r.move(c, 1, 0)
				r.move(c, 2, 0)
				// A retransmitted Connect is re-accepted under the same id
				// and resets the delta baseline: the restarted peer gets
				// full state again.
				r.connect(c, "dup")
				r.clients()
				r.move(c, 3, 0)
			},
			want: []string{"accept client=0", "snapshot ack=1 full", "snapshot ack=2 delta",
				"accept client=0", "clients=1", "snapshot ack=3 full"},
		},
		{
			name: "ping",
			run:  func(r *parityRig) { r.exchange(r.client(""), &protocol.Ping{Nonce: 0xFEEDFACE}) },
			want: []string{"pong 0xfeedface"},
		},
		{
			name: "move-from-unknown-address",
			run: func(r *parityRig) {
				r.move(r.client(""), 1, 0)
				r.clients()
			},
			want: []string{"silence", "clients=0"},
		},
		{
			name: "old-duplicate-and-wild-seq",
			run: func(r *parityRig) {
				c := r.client("")
				r.connect(c, "d")
				r.move(c, 5, 0)
				r.move(c, 6, 0)
				r.move(c, 6, 0) // duplicate
				r.move(c, 4, 0) // reordered stale datagram
				// A corrupted forward jump is dropped without poisoning the
				// filter: the next in-order move is still accepted.
				r.move(c, 7+maxSeqAdvance, 0)
				r.move(c, 7, 0)
			},
			want: []string{"accept client=0", "snapshot ack=5 full", "snapshot ack=6 delta",
				"silence", "silence", "silence", "snapshot ack=7 delta"},
		},
		{
			name: "resynced-seq-after-restore",
			cfg:  parkedSurvivor,
			run: func(r *parityRig) {
				// The survivor's peer restarted its seq space far below the
				// recovered lastSeq: its first move re-seeds the window
				// once, after which the filter is armed again.
				c := r.client("old:0")
				r.connect(c, "whoever")
				r.moveUntilAnswered(c, 1)
				r.move(c, 1, 0)
				r.move(c, 2, 0)
				r.clients()
			},
			want: []string{"accept client=7", "snapshot ack=1 full", "silence", "snapshot ack=2 delta", "clients=1"},
		},
		{
			name: "bare-move-from-parked-survivor",
			cfg:  parkedSurvivor,
			run: func(r *parityRig) {
				// The client that never noticed the crash: no Connect, just
				// moves from its old address.
				r.moveUntilAnswered(r.client("old:0"), 1)
			},
			want: []string{"snapshot ack=1 full"},
		},
		{
			name: "ack-gap-invalidates-baseline",
			run: func(r *parityRig) {
				c := r.client("")
				r.connect(c, "gap")
				// One frame per acknowledged move, so the last reply's frame
				// is well past baselineGapFrames.
				n := uint32(baselineGapFrames + 8)
				for seq := uint32(1); seq <= n; seq++ {
					c.send(r.t, &protocol.Move{Seq: seq, Cmd: protocol.MoveCmd{Msec: 33}})
					if _, ok := c.recv(r.t, 2*time.Second).(*protocol.Snapshot); !ok {
						r.t.Fatalf("move %d not answered", seq)
					}
				}
				r.move(c, n+1, 1) // acknowledges a frame far behind: full state
				r.move(c, n+2, 0) // no information: delta continues
			},
			want: []string{"accept client=0",
				fmt.Sprintf("snapshot ack=%d full", baselineGapFrames+9),
				fmt.Sprintf("snapshot ack=%d delta", baselineGapFrames+10)},
		},
		{
			name: "connect-when-full",
			cfg:  func(cfg *Config) { cfg.MaxClients = 1 },
			run: func(r *parityRig) {
				r.connect(r.client(""), "first")
				r.connect(r.client(""), "second")
				r.clients()
			},
			want: []string{"accept client=0", `reject "server full"`, "clients=1"},
		},
		{
			name: "connect-while-draining",
			run: func(r *parityRig) {
				c := r.client("")
				r.connect(c, "early")
				r.session().draining.Store(true)
				r.connect(r.client(""), "late")
				r.connect(c, "early")
				r.clients()
			},
			want: []string{"accept client=0", `reject "server shutting down"`, `reject "server shutting down"`, "clients=1"},
		},
		{
			name: "disconnect",
			run: func(r *parityRig) {
				c := r.client("")
				r.connect(c, "bye")
				r.exchange(c, &protocol.Disconnect{})
				r.clients()
				r.move(c, 1, 0)
				r.exchange(c, &protocol.Disconnect{})
			},
			want: []string{"accept client=0", `disconnected "bye"`, "clients=0", "silence", "silence"},
		},
		{
			name: "silent-client-timeout",
			cfg:  func(cfg *Config) { cfg.ClientTimeout = 150 * time.Millisecond },
			run: func(r *parityRig) {
				ghost, keeper := r.client(""), r.client("")
				r.connect(ghost, "ghost")
				// Another client keeps the frame loop alive while the first
				// goes silent.
				r.connect(keeper, "keeper")
				deadline := time.Now().Add(5 * time.Second)
				for seq := uint32(1); r.eng.NumClients() != 1 && time.Now().Before(deadline); seq++ {
					keeper.send(r.t, &protocol.Move{Seq: seq, Cmd: protocol.MoveCmd{Msec: 33}})
					keeper.recv(r.t, 10*time.Millisecond)
					time.Sleep(10 * time.Millisecond)
				}
				r.clients()
			},
			want: []string{"accept client=0", "accept client=1", "clients=1"},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for _, pe := range parityEngines {
				t.Run(pe.name, func(t *testing.T) {
					rig := newRigCfg(t, pe.threads, 0, locking.Optimized{}, func(cfg *Config) {
						cfg.MaxClients = 8
						cfg.Stealing = pe.stealing
						if row.cfg != nil {
							row.cfg(cfg)
						}
					})
					r := &parityRig{t: t, eng: rig.engine, net: rig.net}
					row.run(r)
					if !reflect.DeepEqual(r.log, row.want) {
						t.Errorf("transcript diverged:\n got %q\nwant %q", r.log, row.want)
					}
				})
			}
		})
	}
}

// TestEventsReachSilentClients verifies the global-state-buffer protocol:
// broadcast events produced while a client is not requesting are queued
// in its per-player buffer and delivered with its next reply.
func TestEventsReachSilentClients(t *testing.T) {
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, _ := game.NewWorld(game.Config{Map: m, Seed: 2})
	net := transport.NewNetwork(transport.NetworkConfig{})
	conn, _ := net.Listen("srv:0")
	srv, err := NewSequential(Config{
		World: w, Conns: []transport.Conn{conn},
		SelectTimeout: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	// Two clients; the first will idle, the second will fight.
	idle := newRawClient(t, net, "")
	idle.send(t, &protocol.Connect{Name: "idle", FrameMs: 33})
	acc, ok := idle.recv(t, 2*time.Second).(*protocol.Accept)
	if !ok {
		t.Fatal("idle not accepted")
	}
	_ = acc
	active := newRawClient(t, net, "")
	active.send(t, &protocol.Connect{Name: "active", FrameMs: 33})
	if _, ok := active.recv(t, 2*time.Second).(*protocol.Accept); !ok {
		t.Fatal("active not accepted")
	}

	// The active client fires rockets for a while (events are generated:
	// at least projectile spawns).
	for i := uint32(1); i <= 40; i++ {
		active.send(t, &protocol.Move{Seq: i, Cmd: protocol.MoveCmd{
			Msec: 33, Buttons: protocol.BtnFire,
		}})
		active.recv(t, 5*time.Millisecond)
		time.Sleep(3 * time.Millisecond)
	}

	// Now the idle client sends one move; its reply must carry queued
	// events from the frames it missed.
	idle.send(t, &protocol.Move{Seq: 1, Cmd: protocol.MoveCmd{Msec: 33}})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		msg := idle.recv(t, 100*time.Millisecond)
		if snap, ok := msg.(*protocol.Snapshot); ok {
			if len(snap.Events) == 0 {
				t.Fatal("idle client's snapshot carried no backlog events")
			}
			return
		}
	}
	t.Fatal("idle client never got a snapshot")
}

func TestParallelOptimizedStrategyEndToEnd(t *testing.T) {
	rig := newRig(t, 4, 16, locking.Optimized{})
	rig.drive(50, 3*time.Millisecond)
	rig.engine.Stop()
	if rig.engine.Replies() == 0 {
		t.Fatal("no replies under optimized locking")
	}
	var lockNs int64
	for _, bd := range rig.engine.Breakdowns() {
		lockNs += bd.LeafLockNs + bd.ParentLockNs
	}
	if lockNs == 0 {
		t.Error("optimized locking recorded no lock activity at all")
	}
}

// TestDeltaCompressionBoundsBandwidth drives a session and checks the
// paper's premise that "a single 100 MBit Ethernet, commodity network
// interface can support large numbers of players": per-client downstream
// bandwidth must be a few KB/s, not MB/s, thanks to interest filtering
// and delta compression.
func TestDeltaCompressionBoundsBandwidth(t *testing.T) {
	rig := newRig(t, 2, 12, locking.Optimized{})
	rig.drive(80, 2*time.Millisecond)
	rig.engine.Stop()

	replies := rig.engine.Replies()
	bytesOut := rig.engine.BytesOut()
	if replies == 0 || bytesOut == 0 {
		t.Fatalf("replies=%d bytes=%d", replies, bytesOut)
	}
	perReply := float64(bytesOut) / float64(replies)
	// A full uncompressed world state would be hundreds of entities x
	// ~10 bytes; steady-state deltas must average far below that.
	if perReply > 600 {
		t.Errorf("average reply size %.0f bytes — delta compression ineffective", perReply)
	}
	if rig.engine.BytesIn() == 0 {
		t.Error("no inbound bytes counted")
	}
	t.Logf("avg reply %.0f bytes, %d replies, in=%d out=%d",
		perReply, replies, rig.engine.BytesIn(), bytesOut)
}

func TestSeqOlderWraparound(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{5, 5, true},
		{4, 5, true},
		{6, 5, false},
		{0xFFFFFFFF, 2, true}, // wrapped: 2 is newer
		{2, 0xFFFFFFFF, false},
	}
	for _, c := range cases {
		if got := seqOlder(c.a, c.b); got != c.want {
			t.Errorf("seqOlder(%d,%d) = %v", c.a, c.b, got)
		}
	}
}

package server

import (
	"fmt"
	"testing"
	"time"

	"qserve/internal/balance"
	"qserve/internal/botclient"
	"qserve/internal/checkpoint"
	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/protocol"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// restoredRig is an engine seeded from a synthetic RestoreState: a world
// holding live player entities and a client table of parked survivors —
// exactly what replay.Recover hands a restarting server. The reconnect
// tests drive the three resume paths (same address, name from a new
// address, bare move from the old address) against it.
type restoredRig struct {
	net    *transport.Network
	engine *Parallel
	world  *game.World
	m      *worldmap.Map
	rs     *RestoreState
}

func newRestoredRig(t *testing.T, threads, survivors int, mut func(*Config)) *restoredRig {
	t.Helper()
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := game.NewWorld(game.Config{Map: m, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]checkpoint.ClientRec, 0, survivors)
	for i := 0; i < survivors; i++ {
		e, err := w.SpawnPlayer()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, checkpoint.ClientRec{
			ID:     uint16(3 + i),
			EntID:  int32(e.ID),
			Thread: uint8(i % max(threads, 1)),
			// The poison pill: the crashed session was deep into its seq
			// space. A reconnecting client restarts at seq 1, which the
			// duplicate filter would silently discard without the one-shot
			// resync exemption.
			LastSeq:      uint32(900 + 10*i),
			RepliedFrame: 500,
			Name:         fmt.Sprintf("srv-%d", i),
			Addr:         fmt.Sprintf("old:%d", i),
		})
	}
	rs := &RestoreState{
		Frame:        500,
		JoinIdx:      survivors,
		NextClientID: 40,
		Clients:      recs,
		RecoveryNs:   123_456,
	}
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 2048})
	conns := make([]transport.Conn, max(threads, 1))
	for i := range conns {
		if conns[i], err = net.Listen(fmt.Sprintf("srv:%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		World:      w,
		Conns:      conns,
		Threads:    threads,
		Strategy:   locking.Optimized{},
		MaxClients: 32,
		Restore:    rs,
	}
	if mut != nil {
		mut(&cfg)
	}
	eng, err := NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	return &restoredRig{net: net, engine: eng, world: w, m: m, rs: rs}
}

// bot builds a client endpoint at the given transport address.
func (r *restoredRig) bot(t *testing.T, name, addr string) *botclient.Bot {
	t.Helper()
	bc, err := r.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := botclient.New(botclient.Config{
		Name:   name,
		Conn:   bc,
		Server: transport.MemAddr("srv:0"),
		Map:    r.m,
		Seed:   int64(len(addr)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func driveBots(bots []*botclient.Bot, steps int) {
	for f := 0; f < steps; f++ {
		for _, b := range bots {
			b.Step()
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	for _, b := range bots {
		b.Drain()
	}
}

// TestReconnectByName is the reconnect handshake across engines: the
// survivors come back from brand-new transport addresses (the crash took
// their NAT bindings with it), so only the account name carries the
// identity. Each must be resumed onto its restored entity — not spawned
// fresh — and its moves must be accepted even though the restored
// lastSeq is far ahead of the client's restarted counter.
func TestReconnectByName(t *testing.T) {
	for _, threads := range []int{0, 2, 4} {
		threads := threads
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			rig := newRestoredRig(t, threads, 3, nil)
			bots := make([]*botclient.Bot, len(rig.rs.Clients))
			for i, rec := range rig.rs.Clients {
				bots[i] = rig.bot(t, rec.Name, fmt.Sprintf("fresh:%d", i))
				if err := bots[i].Connect(); err != nil {
					t.Fatalf("survivor %d reconnect: %v", i, err)
				}
				if bots[i].EntityID() != rec.EntID {
					t.Fatalf("survivor %d resumed onto entity %d, its restored entity is %d",
						i, bots[i].EntityID(), rec.EntID)
				}
				if bots[i].ClientID() != rec.ID {
					t.Fatalf("survivor %d got client id %d, its restored id is %d",
						i, bots[i].ClientID(), rec.ID)
				}
			}
			driveBots(bots, 60)
			rig.engine.Stop()
			for i, b := range bots {
				if b.Snapshots == 0 {
					t.Errorf("survivor %d received no snapshots after resume", i)
				}
				if b.Moved < 20 {
					t.Errorf("survivor %d barely moved (%.1f units): its fresh seqs were likely dropped against the restored lastSeq", i, b.Moved)
				}
			}
			if rig.engine.Frames() <= rig.rs.Frame {
				t.Errorf("frame counter did not resume past the restored frame: %d <= %d",
					rig.engine.Frames(), rig.rs.Frame)
			}
			var recovered int64
			for _, bd := range rig.engine.Breakdowns() {
				recovered += bd.RecoveryNs
			}
			if recovered != rig.rs.RecoveryNs {
				t.Errorf("RecoveryNs not surfaced in the breakdown: got %d, want %d",
					recovered, rig.rs.RecoveryNs)
			}
		})
	}
}

// TestReconnectSameAddr resumes a survivor whose transport address
// survived the crash (in-memory transport; in production, a stable
// UDP 5-tuple): the connect arrives from exactly the checkpointed
// address and must resume rather than double-join.
func TestReconnectSameAddr(t *testing.T) {
	rig := newRestoredRig(t, 0, 2, nil)
	rec := rig.rs.Clients[0]
	b := rig.bot(t, rec.Name, rec.Addr)
	if err := b.Connect(); err != nil {
		t.Fatal(err)
	}
	if b.EntityID() != rec.EntID || b.ClientID() != rec.ID {
		t.Fatalf("same-addr resume gave entity %d client %d, restored %d/%d",
			b.EntityID(), b.ClientID(), rec.EntID, rec.ID)
	}
	driveBots([]*botclient.Bot{b}, 40)
	if b.Snapshots == 0 || b.Moved < 20 {
		t.Fatalf("resumed client is not being served: %d snapshots, %.1f moved", b.Snapshots, b.Moved)
	}
}

// TestReconnectBareMove covers the client that never noticed the crash:
// it keeps sending moves from its old address without re-connecting.
// The sequential engine adopts the parked identity in place on first
// contact and serves it.
func TestReconnectBareMove(t *testing.T) {
	rig := newRestoredRig(t, 0, 2, nil)
	rec := rig.rs.Clients[1]
	b := rig.bot(t, rec.Name, rec.Addr)
	// No Connect: straight to gameplay traffic.
	driveBots([]*botclient.Bot{b}, 40)
	if b.Snapshots == 0 {
		t.Fatalf("move-only survivor was never adopted: %d snapshots", b.Snapshots)
	}
}

// TestReconnectNoCollision interleaves a brand-new player with the
// reconnecting survivors: the newcomer must collide with neither a
// recycled entity slot nor a restored client id, and every survivor must
// still land on its own entity afterwards.
func TestReconnectNoCollision(t *testing.T) {
	rig := newRestoredRig(t, 2, 3, nil)

	// The newcomer joins BEFORE any survivor comes back — the window
	// where a naive id allocator would hand out a survivor's id.
	fresh := rig.bot(t, "newcomer", "fresh:9")
	if err := fresh.Connect(); err != nil {
		t.Fatal(err)
	}
	if fresh.ClientID() < rig.rs.NextClientID {
		t.Fatalf("newcomer got client id %d inside the restored id space (next %d)",
			fresh.ClientID(), rig.rs.NextClientID)
	}
	bots := []*botclient.Bot{fresh}
	seenEnts := map[int32]string{fresh.EntityID(): "newcomer"}
	seenIDs := map[uint16]string{fresh.ClientID(): "newcomer"}
	for i, rec := range rig.rs.Clients {
		b := rig.bot(t, rec.Name, fmt.Sprintf("fresh:%d", i))
		if err := b.Connect(); err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		if b.EntityID() != rec.EntID {
			t.Fatalf("survivor %d lost its entity: got %d, restored %d", i, b.EntityID(), rec.EntID)
		}
		if who, dup := seenEnts[b.EntityID()]; dup {
			t.Fatalf("entity %d assigned to both %s and survivor %d", b.EntityID(), who, i)
		}
		if who, dup := seenIDs[b.ClientID()]; dup {
			t.Fatalf("client id %d assigned to both %s and survivor %d", b.ClientID(), who, i)
		}
		seenEnts[b.EntityID()] = rec.Name
		seenIDs[b.ClientID()] = rec.Name
		bots = append(bots, b)
	}
	driveBots(bots, 50)
	for i, b := range bots {
		if b.Snapshots == 0 {
			t.Errorf("client %d received no snapshots", i)
		}
	}
}

// TestParkedClientsReaped: survivors that never reconnect must not leak
// — the stale-client reaper ages them out and frees their entities.
func TestParkedClientsReaped(t *testing.T) {
	rig := newRestoredRig(t, 0, 2, func(cfg *Config) {
		cfg.ClientTimeout = 80 * time.Millisecond
	})
	// A live client keeps frames (and the reaper) running.
	b := rig.bot(t, "keeper", "fresh:0")
	if err := b.Connect(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		driveBots([]*botclient.Bot{b}, 10)
		gone := 0
		for _, rec := range rig.rs.Clients {
			if e := rig.world.Ents.Get(entity.ID(rec.EntID)); e == nil || !e.Active {
				gone++
			}
		}
		if gone == len(rig.rs.Clients) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked survivors never reaped: %d of %d entities still live",
				len(rig.rs.Clients)-gone, len(rig.rs.Clients))
		}
	}
}

// TestRestoredUDPClientResumes: a survivor parked from a checkpoint
// captured over UDP resumes when the same UDP sender calls again. Its
// route, set at restore from the checkpointed address text, steers the
// Connect to the owning thread: the Accept leaves from thread 1's
// endpoint although the Connect was sent to thread 0's.
func TestRestoredUDPClientResumes(t *testing.T) {
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := game.NewWorld(game.Config{Map: m, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e, err := w.SpawnPlayer()
	if err != nil {
		t.Fatal(err)
	}
	listen := func() *transport.UDPConn {
		c, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Skip(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	conns := []transport.Conn{listen(), listen()}
	cl := listen()
	eng, err := NewParallel(Config{
		World: w, Conns: conns, Threads: 2, Strategy: locking.Optimized{}, MaxClients: 8,
		Balance: balance.Policy{Enabled: true},
		Restore: &RestoreState{Frame: 500, JoinIdx: 1, NextClientID: 40, Clients: []checkpoint.ClientRec{{
			ID: 3, EntID: int32(e.ID), Thread: 1, LastSeq: 900, Name: "survivor", Addr: cl.LocalAddr().String(),
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()

	var wr protocol.Writer
	if err := protocol.Encode(&wr, &protocol.Connect{Name: "survivor", FrameMs: 33}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(conns[0].LocalAddr(), wr.Bytes()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, transport.MaxDatagram)
	n, from, err := cl.Recv(buf, 2*time.Second)
	if err != nil {
		t.Fatalf("no reply to the survivor's Connect: %v", err)
	}
	msg, err := protocol.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if acc, ok := msg.(*protocol.Accept); !ok || acc.ClientID != 3 {
		t.Fatalf("survivor got %#v, want the Accept of client 3", msg)
	}
	if from.String() != conns[1].LocalAddr().String() {
		t.Fatalf("Accept came from %v, want the owning thread's endpoint %v: the restored route missed", from, conns[1].LocalAddr())
	}
	c := eng.clients.lookupID(3)
	deadline := time.Now().Add(2 * time.Second)
	for c.awaitingResume.Load() {
		if time.Now().After(deadline) {
			t.Fatal("survivor still parked after its Connect")
		}
		time.Sleep(time.Millisecond)
	}
	if got := eng.NumClients(); got != 1 {
		t.Fatalf("%d clients after the resume, want the survivor alone", got)
	}
}

package match

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/collide"
	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/replay"
	"qserve/internal/server"
	"qserve/internal/transport"
)

// Cross-instance isolation: two matches sharing one SharedBufs pool and
// one game.Static, interleaving frames, must compute exactly the game
// each would compute alone. The pooled scratch (reply buffers,
// visibility index, sweep buffers) and the static world (map, collision
// tree, visibility tables) are the only state that crosses instances;
// if any of it leaks game-visible information the entity-table digests
// diverge.

// vclock is the deterministic frame-logic clock.
type vclock struct{ t time.Time }

func (v *vclock) now() time.Time       { return v.t }
func (v *vclock) tick(d time.Duration) { v.t = v.t.Add(d) }

// scriptedMatch is one engine with a raw scripted client: no bot AI, so
// the input stream is a pure function of the step index.
type scriptedMatch struct {
	eng    *server.Sequential
	world  *game.World
	clock  *vclock
	cli    *transport.MemConn
	srv    transport.Addr
	wr     protocol.Writer
	seq    uint32
	drain  []byte
	script func(step int) protocol.MoveCmd
}

func newScriptedMatch(t *testing.T, st *game.Static, shared *server.SharedBufs, label string, script func(int) protocol.MoveCmd) *scriptedMatch {
	t.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 8192})
	srvConn, err := net.Listen("srv:" + label)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Listen("cli:" + label)
	if err != nil {
		t.Fatal(err)
	}
	w, err := game.NewWorld(game.Config{Static: st})
	if err != nil {
		t.Fatal(err)
	}
	clock := &vclock{t: time.Unix(1000, 0)}
	eng, err := server.NewSequential(server.Config{
		World:      w,
		Conns:      []transport.Conn{srvConn},
		MaxClients: 8,
		Shared:     shared,
		Clock:      clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.StartStepped()
	return &scriptedMatch{
		eng: eng, world: w, clock: clock, cli: cli,
		srv: transport.MemAddr("srv:" + label), script: script,
		drain: make([]byte, transport.MaxDatagram),
	}
}

func (sm *scriptedMatch) send(t *testing.T, msg any) {
	t.Helper()
	sm.wr.Reset()
	if err := protocol.Encode(&sm.wr, msg); err != nil {
		t.Fatal(err)
	}
	if err := sm.cli.Send(sm.srv, sm.wr.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// step feeds the scripted input for one frame, advances the virtual
// clock, and steps the engine.
func (sm *scriptedMatch) step(t *testing.T, i int) {
	t.Helper()
	if i == 0 {
		sm.send(t, &protocol.Connect{Name: "scripted", FrameMs: 20, ProtocolVer: protocol.Version})
	} else {
		sm.seq++
		sm.send(t, &protocol.Move{Seq: sm.seq, Cmd: sm.script(i)})
	}
	sm.clock.tick(20 * time.Millisecond)
	sm.eng.StepFrame()
	// Drain the client's queue so long runs can't hit the queue bound.
	for {
		if _, _, err := sm.cli.Recv(sm.drain, 0); err != nil {
			break
		}
	}
}

func scriptA(i int) protocol.MoveCmd {
	cmd := protocol.MoveCmd{Forward: 320, Yaw: int16(i * 1117), Msec: 20}
	if i%7 == 3 {
		cmd.Buttons = protocol.BtnFire
	}
	return cmd
}

func scriptB(i int) protocol.MoveCmd {
	cmd := protocol.MoveCmd{Forward: 240, Side: 150, Yaw: int16(-i * 733), Msec: 20}
	if i%5 == 2 {
		cmd.Buttons = protocol.BtnJump
	}
	return cmd
}

// TestCrossInstanceDigestIsolation runs A and B interleaved on one
// shared pool and one shared Static, then each solo on its own pool and
// a private Static, and requires bit-identical entity-table digests. Any
// cross-instance state leak through the shared scratch layer or the
// static world breaks the equality.
func TestCrossInstanceDigestIsolation(t *testing.T) {
	m := smallMap(t)
	const steps = 150

	runSolo := func(script func(int) protocol.MoveCmd, label string) uint64 {
		sm := newScriptedMatch(t, game.NewStatic(m), server.NewSharedBufs(), label, script)
		for i := 0; i < steps; i++ {
			sm.step(t, i)
		}
		sm.eng.Stop()
		return replay.TableDigest(sm.world)
	}
	wantA := runSolo(scriptA, "soloA")
	wantB := runSolo(scriptB, "soloB")

	// Interleaved: one pool and one static world, alternating frames —
	// the scratch set A just released is the one B picks up, every frame.
	shared := server.NewSharedBufs()
	st := game.NewStatic(m)
	a := newScriptedMatch(t, st, shared, "intA", scriptA)
	b := newScriptedMatch(t, st, shared, "intB", scriptB)
	if a.world.Collide != b.world.Collide {
		t.Fatal("interleaved matches do not share one static world")
	}
	for i := 0; i < steps; i++ {
		a.step(t, i)
		b.step(t, i)
	}
	a.eng.Stop()
	b.eng.Stop()

	if got := replay.TableDigest(a.world); got != wantA {
		t.Errorf("match A digest: interleaved %016x != solo %016x", got, wantA)
	}
	if got := replay.TableDigest(b.world); got != wantB {
		t.Errorf("match B digest: interleaved %016x != solo %016x", got, wantB)
	}
	if wantA == wantB {
		t.Fatal("scripts A and B converged to the same digest; the test lost its power")
	}
}

// TestReferenceViewStaysLocal installs the exhaustive Reference trace
// view on one world, as the DES engine does, and requires a sibling
// world on the same Static to keep reporting the front-to-back walk's
// work: World.Collide is each world's own pointer, so the swap cannot
// reach through the shared tree.
func TestReferenceViewStaysLocal(t *testing.T) {
	st := game.NewStatic(smallMap(t))
	drive := func(w *game.World) collide.Work {
		e, err := w.SpawnPlayer()
		if err != nil {
			t.Fatal(err)
		}
		var total collide.Work
		lc := &game.LockContext{}
		for i := 0; i < 60; i++ {
			cmd := scriptA(i)
			res := w.ExecuteMove(e, &cmd, lc)
			total.Add(res.Work.Collide)
		}
		return total
	}
	newWorld := func() *game.World {
		w, err := game.NewWorld(game.Config{Static: st})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	want := drive(newWorld())

	ref, sibling := newWorld(), newWorld()
	ref.Collide = ref.Collide.Reference()
	if got := drive(sibling); got != want {
		t.Errorf("sibling trace work %+v after Reference() on its neighbour, want %+v", got, want)
	}
	if got := drive(ref); got == want {
		t.Fatal("Reference view reported the front-to-back walk's work; the test lost its power")
	}
	if st.Collide != sibling.Collide {
		t.Error("Reference() replaced the shared Static's tree")
	}
}

// TestMatchFootprint gates what one more idle match costs once the
// static world is shared: bytes allocated per CreateMatch over a fleet
// built on one Static, engine and lobby port included. A private Static
// and a flat 2048-slot entity table per match cost 1.02 MB on this map;
// with both gone it is 74 KB, split about evenly between the lobby
// port's queue, the one entity chunk the map's items use, and the rest
// (areanode tree, active-ID index, engine).
func TestMatchFootprint(t *testing.T) {
	const matches = 64
	const ceiling = 80 << 10
	st := smallStatic(t)
	net := transport.NewNetwork(transport.NetworkConfig{})
	conn, err := net.Listen("srv:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Config{})
	lobby := NewLobby(mgr, conn)
	defer lobby.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < matches; i++ {
		if _, err := lobby.CreateMatch(fmt.Sprintf("m%d", i), func(c transport.Conn) (*server.Sequential, error) {
			return newEngine(t, st, c, mgr.Shared()), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / matches
	t.Logf("%d bytes allocated per match", per)
	if per > ceiling {
		t.Errorf("CreateMatch allocates %d bytes per match, want <= %d", per, ceiling)
	}
}

// TestEvictionIsolation crashes one match mid-frame (past the engine's
// own per-client containment) and requires the manager to evict exactly
// that match while its neighbor keeps serving frames and replies.
func TestEvictionIsolation(t *testing.T) {
	st := smallStatic(t)
	m := st.Map
	var once sync.Once
	mgr := NewManager(Config{
		Workers:        2,
		ActiveInterval: 2 * time.Millisecond,
		IdleInterval:   10 * time.Millisecond,
		Hooks: Hooks{PreStep: func(name string) {
			if name == "bad" {
				var boom bool
				once.Do(func() { boom = true })
				if boom {
					panic("injected match crash")
				}
			}
		}},
	})
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	srvConn, err := net.Listen("srv:0")
	if err != nil {
		t.Fatal(err)
	}
	lobby := NewLobby(mgr, srvConn)
	defer lobby.Close()
	for _, name := range []string{"good", "bad"} {
		if _, err := lobby.CreateMatch(name, func(conn transport.Conn) (*server.Sequential, error) {
			return newEngine(t, st, conn, mgr.Shared()), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Start()

	bc, err := net.Listen("bot:good")
	if err != nil {
		t.Fatal(err)
	}
	bot, err := botclient.New(botclient.Config{
		Name: "g", Conn: bc, Server: transport.MemAddr("srv:0"), Map: m, Match: "good",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bot.Connect(); err != nil {
		t.Fatalf("bot connect: %v", err)
	}

	// Let the crash fire and the good match keep running past it.
	deadline := time.Now().Add(3 * time.Second)
	for mgr.Evictions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("injected panic never evicted the bad match")
		}
		bot.Step()
		time.Sleep(2 * time.Millisecond)
	}
	before := bot.Resp.Replies
	for i := 0; i < 40; i++ {
		bot.Step()
		time.Sleep(2 * time.Millisecond)
	}
	if bot.Resp.Replies <= before {
		t.Errorf("good match stopped replying after bad match eviction (%d -> %d)",
			before, bot.Resp.Replies)
	}
	if mgr.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", mgr.Evictions())
	}
	if mgr.Len() != 1 {
		t.Errorf("live matches = %d, want 1", mgr.Len())
	}
	// The freed name must no longer be assignable.
	if mt := mgr.lookup("bad"); mt != nil {
		t.Error("evicted match still resolvable by name")
	}

	lobby.Close()
	mgr.Stop()
	var evicted, healthy bool
	for _, st := range mgr.Stats() {
		switch st.Name {
		case "bad":
			evicted = st.Evicted
		case "good":
			healthy = !st.Evicted && st.Replies > 0
		}
	}
	if !evicted || !healthy {
		t.Errorf("post-mortem stats: bad evicted=%v, good healthy=%v", evicted, healthy)
	}
}

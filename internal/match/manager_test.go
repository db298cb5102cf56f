package match

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/game"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// testStatic is one small map and its static world (collision tree,
// visibility tables): both are immutable, so every match's world in
// these tests is built over the same one, as qserved's are.
var testStaticOnce sync.Once
var testStatic *game.Static

func smallStatic(t testing.TB) *game.Static {
	t.Helper()
	testStaticOnce.Do(func() {
		mc := worldmap.DefaultConfig()
		mc.Name = "gen-dm4"
		mc.Rows, mc.Cols = 2, 2
		mc.ItemsPerRoom = 1
		mc.TeleporterPairs = 0
		mc.Seed = 7
		testStatic = game.NewStatic(worldmap.MustGenerate(mc))
	})
	return testStatic
}

func smallMap(t testing.TB) *worldmap.Map { return smallStatic(t).Map }

func newEngine(t testing.TB, st *game.Static, conn transport.Conn, shared *server.SharedBufs) *server.Sequential {
	t.Helper()
	w, err := game.NewWorld(game.Config{Static: st})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	eng, err := server.NewSequential(server.Config{
		World:      w,
		Conns:      []transport.Conn{conn},
		MaxClients: 32,
		Shared:     shared,
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return eng
}

// TestLobbyRoutesAndAssigns proves the admission tier end to end: a
// named Connect reaches exactly the named match, "assign me" rotates
// over matches, an unknown name is rejected, and gameplay traffic flows
// to the right engine after admission.
func TestLobbyRoutesAndAssigns(t *testing.T) {
	st := smallStatic(t)
	m := st.Map
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	srvConn, err := net.Listen("srv:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Config{Workers: 2, ActiveInterval: 2 * time.Millisecond, IdleInterval: 20 * time.Millisecond})
	lobby := NewLobby(mgr, srvConn)
	defer lobby.Close()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("m%d", i)
		if _, err := lobby.CreateMatch(name, func(conn transport.Conn) (*server.Sequential, error) {
			return newEngine(t, st, conn, mgr.Shared()), nil
		}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	mgr.Start()
	defer mgr.Stop()

	mkBot := func(i int, match string) *botclient.Bot {
		bc, err := net.Listen(fmt.Sprintf("bot:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		bot, err := botclient.New(botclient.Config{
			Name:   fmt.Sprintf("bot-%d", i),
			Conn:   bc,
			Server: transport.MemAddr("srv:0"),
			Map:    m,
			Seed:   int64(i),
			Match:  match,
		})
		if err != nil {
			t.Fatal(err)
		}
		return bot
	}

	// One bot names m1 explicitly; three more ask for assignment and
	// must spread over the rotation (m0, m1, m2).
	bots := []*botclient.Bot{mkBot(0, "m1"), mkBot(1, ""), mkBot(2, ""), mkBot(3, "")}
	for i, b := range bots {
		if err := b.Connect(); err != nil {
			t.Fatalf("bot %d connect: %v", i, err)
		}
	}
	for f := 0; f < 60; f++ {
		for _, b := range bots {
			b.Step()
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := lobby.Routed(); got != 4 {
		t.Errorf("routed = %d, want 4", got)
	}

	// An unknown match name must be rejected by the lobby itself.
	rejConn, err := net.Listen("bot:rej")
	if err != nil {
		t.Fatal(err)
	}
	rej, err := botclient.New(botclient.Config{
		Name: "rej", Conn: rejConn, Server: transport.MemAddr("srv:0"),
		Map: m, Match: "nope", ConnectTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rej.Connect(); err == nil {
		t.Error("connect to unknown match succeeded, want rejection")
	}
	if lobby.Rejects() == 0 {
		t.Error("lobby counted no rejects")
	}

	lobby.Close()
	mgr.Stop()
	stats := mgr.Stats()
	counts := map[string]int{}
	var replies int64
	for _, st := range stats {
		counts[st.Name] = st.Clients
		replies += st.Replies
	}
	// m1 got the named bot plus one assigned; m0 and m2 one assigned each.
	if counts["m0"] != 1 || counts["m1"] != 2 || counts["m2"] != 1 {
		t.Errorf("client spread = %v, want m0:1 m1:2 m2:1", counts)
	}
	if replies == 0 {
		t.Error("no replies flowed through any match")
	}
}

// TestIdleMatchesShareScratch proves the memory bound the shared pool
// exists for: many idle matches ticking concurrently borrow far fewer
// frame-scratch sets than there are matches.
func TestIdleMatchesShareScratch(t *testing.T) {
	st := smallStatic(t)
	const matches = 64
	mgr := NewManager(Config{Workers: 4, IdleInterval: 3 * time.Millisecond})
	net := transport.NewNetwork(transport.NetworkConfig{})
	for i := 0; i < matches; i++ {
		conn, err := net.Listen(fmt.Sprintf("m:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Add(fmt.Sprintf("idle-%d", i), newEngine(t, st, conn, mgr.Shared())); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Start()
	time.Sleep(150 * time.Millisecond)
	mgr.Stop()

	ag := mgr.AggregateStats()
	if ag.Frames < matches {
		t.Fatalf("aggregate frames = %d, want at least one per match (%d)", ag.Frames, matches)
	}
	for _, st := range mgr.Stats() {
		if st.Frames == 0 {
			t.Errorf("match %s never stepped", st.Name)
		}
	}
	// Idle matches return their scratch every tick, so the pool's
	// high-water mark tracks simultaneous activity (≤ workers), not the
	// match count.
	if made := mgr.Shared().Made(); made > 8 {
		t.Errorf("scratch sets built = %d for %d idle matches; pooling is not sharing", made, matches)
	}
}

// TestPokeSchedulesPromptly proves the lobby's admission latency bound:
// a poked idle match steps well before its idle tick would have fired.
func TestPokeSchedulesPromptly(t *testing.T) {
	st := smallStatic(t)
	mgr := NewManager(Config{Workers: 1, IdleInterval: time.Hour})
	net := transport.NewNetwork(transport.NetworkConfig{})
	conn, err := net.Listen("m:0")
	if err != nil {
		t.Fatal(err)
	}
	mt, err := mgr.Add("m0", newEngine(t, st, conn, mgr.Shared()))
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	defer mgr.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for frames(mgr, mt) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first frame never stepped")
		}
		time.Sleep(time.Millisecond)
	}
	base := frames(mgr, mt)
	mgr.Poke("m0")
	deadline = time.Now().Add(2 * time.Second)
	for frames(mgr, mt) == base {
		if time.Now().After(deadline) {
			t.Fatal("poke did not schedule a frame (idle interval is an hour)")
		}
		time.Sleep(time.Millisecond)
	}
}

func frames(m *Manager, mt *Match) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return mt.frames
}

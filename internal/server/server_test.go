package server

import (
	"fmt"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// testRig wires a server engine, an in-memory network, and a set of
// connected bots.
type testRig struct {
	net    *transport.Network
	world  *game.World
	engine Engine
	bots   []*botclient.Bot
	m      *worldmap.Map
}

func newRig(t *testing.T, threads, numBots int, strat locking.Strategy) *testRig {
	t.Helper()
	return newRigCfg(t, threads, numBots, strat, nil)
}

// newRigCfg is newRig with a config mutator applied before the engine is
// built (balancing policy, timeouts, …).
func newRigCfg(t *testing.T, threads, numBots int, strat locking.Strategy, mut func(*Config)) *testRig {
	t.Helper()
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 2048})

	conns := make([]transport.Conn, max(threads, 1))
	for i := range conns {
		c, err := net.Listen(fmt.Sprintf("srv:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	cfg := Config{
		World:         w,
		Conns:         conns,
		Threads:       threads,
		Strategy:      strat,
		MaxClients:    numBots + 4,
		SelectTimeout: 2 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	var eng Engine
	if threads <= 0 {
		eng, err = NewSequential(cfg)
	} else {
		eng, err = NewParallel(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{net: net, world: w, engine: eng, m: m}
	eng.Start()
	t.Cleanup(eng.Stop)

	for i := 0; i < numBots; i++ {
		bc, err := net.Listen(fmt.Sprintf("bot:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		bot, err := botclient.New(botclient.Config{
			Name:   fmt.Sprintf("bot-%d", i),
			Conn:   bc,
			Server: transport.MemAddr("srv:0"),
			Map:    m,
			Seed:   int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := bot.Connect(); err != nil {
			t.Fatalf("bot %d: %v", i, err)
		}
		rig.bots = append(rig.bots, bot)
	}
	return rig
}

// drive steps every bot for n client frames with the given inter-frame
// pause, simulating 30fps clients at compressed time.
func (r *testRig) drive(n int, pause time.Duration) {
	for f := 0; f < n; f++ {
		for _, b := range r.bots {
			b.Step()
		}
		time.Sleep(pause)
	}
	// Final drain so reply stats settle.
	time.Sleep(20 * time.Millisecond)
	for _, b := range r.bots {
		b.Step()
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSequentialEndToEnd(t *testing.T) {
	rig := newRig(t, 0, 8, nil)
	rig.drive(60, 3*time.Millisecond)
	rig.engine.Stop() // breakdowns are only readable after Stop

	if rig.engine.Frames() == 0 {
		t.Fatal("no frames executed")
	}
	if rig.engine.Replies() == 0 {
		t.Fatal("no replies sent")
	}
	for i, b := range rig.bots {
		if b.Snapshots == 0 {
			t.Errorf("bot %d received no snapshots", i)
		}
		if b.Moved < 50 {
			t.Errorf("bot %d barely moved: %v units", i, b.Moved)
		}
	}
	bd := rig.engine.Breakdowns()[0]
	if bd.Ns[metrics.CompExec] == 0 || bd.Ns[metrics.CompReply] == 0 {
		t.Errorf("sequential breakdown empty: %s", bd.String())
	}
	if bd.Ns[metrics.CompLock] != 0 {
		t.Errorf("sequential server charged lock time: %s", bd.String())
	}
}

func TestParallelEndToEnd(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		threads := threads
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			rig := newRig(t, threads, 12, locking.Conservative{})
			rig.drive(60, 3*time.Millisecond)
			rig.engine.Stop()

			if rig.engine.Frames() == 0 {
				t.Fatal("no frames executed")
			}
			if rig.engine.Replies() == 0 {
				t.Fatal("no replies sent")
			}
			gotSnapshots := 0
			for _, b := range rig.bots {
				if b.Snapshots > 0 {
					gotSnapshots++
				}
			}
			if gotSnapshots < len(rig.bots) {
				t.Errorf("only %d of %d bots got snapshots", gotSnapshots, len(rig.bots))
			}
			var total metrics.Breakdown
			for _, bd := range rig.engine.Breakdowns() {
				total.Add(&bd)
			}
			if total.Ns[metrics.CompExec] == 0 {
				t.Error("no exec time recorded")
			}
			if total.Ns[metrics.CompLock] == 0 {
				t.Error("no lock time recorded (locking enabled)")
			}
			if total.Ns[metrics.CompWorld] == 0 {
				t.Error("no world-update time recorded")
			}
			// The areanode tree must stay consistent.
			if linked := rig.world.Tree.TotalLinked(); linked == 0 {
				t.Error("tree empty after run")
			}
			if rig.engine.Frames() == 0 {
				t.Error("no frames completed")
			}
		})
	}
}

func TestParallelEveryRequestAnswered(t *testing.T) {
	rig := newRig(t, 2, 6, locking.Optimized{})
	rig.drive(80, 2*time.Millisecond)
	for i, b := range rig.bots {
		// Bots send ~80 requests; allowing for the final frame in
		// flight, nearly all must be answered.
		if b.Resp.Replies < 40 {
			t.Errorf("bot %d: only %d replies", i, b.Resp.Replies)
		}
	}
}

func TestConnectRejectWhenFull(t *testing.T) {
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, _ := game.NewWorld(game.Config{Map: m, Seed: 1})
	net := transport.NewNetwork(transport.NetworkConfig{})
	conn, _ := net.Listen("srv:0")
	srv, err := NewSequential(Config{
		World: w, Conns: []transport.Conn{conn},
		MaxClients: 1, SelectTimeout: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	mk := func(name string) *botclient.Bot {
		bc, _ := net.Listen(name)
		b, _ := botclient.New(botclient.Config{
			Name: name, Conn: bc, Server: transport.MemAddr("srv:0"),
			Map: m, Seed: 9, ConnectTimeout: time.Second,
		})
		return b
	}
	if err := mk("bot:a").Connect(); err != nil {
		t.Fatalf("first connect: %v", err)
	}
	if err := mk("bot:b").Connect(); err == nil {
		t.Fatal("second connect accepted on a full server")
	}
	if srv.NumClients() != 1 {
		t.Errorf("clients = %d", srv.NumClients())
	}
}

func TestDuplicateConnectIsIdempotent(t *testing.T) {
	rig := newRig(t, 0, 1, nil)
	before := rig.engine.NumClients()
	if err := rig.bots[0].Connect(); err != nil {
		t.Fatalf("re-connect: %v", err)
	}
	if rig.engine.NumClients() != before {
		t.Errorf("duplicate connect changed client count: %d -> %d", before, rig.engine.NumClients())
	}
}

func TestDisconnectRemovesPlayer(t *testing.T) {
	rig := newRig(t, 2, 3, locking.Conservative{})
	rig.drive(10, 2*time.Millisecond)
	before := rig.engine.NumClients()
	if before != 3 {
		t.Fatalf("clients = %d", before)
	}
	stop := make(chan struct{})
	close(stop)
	rig.bots[0].Run(stop) // runs zero frames and sends Disconnect

	// Let the server process the disconnect: another bot drives a frame.
	deadline := time.Now().Add(2 * time.Second)
	for rig.engine.NumClients() != 2 && time.Now().Before(deadline) {
		rig.bots[1].Step()
		time.Sleep(5 * time.Millisecond)
	}
	if rig.engine.NumClients() != 2 {
		t.Errorf("clients after disconnect = %d", rig.engine.NumClients())
	}
}

func TestBlockAssign(t *testing.T) {
	// 8 clients over 4 threads with capacity 8: two per thread, in
	// contiguous blocks.
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, BlockAssign(i, 4, 8))
	}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BlockAssign = %v, want %v", got, want)
		}
	}
	// Past capacity it degrades to round-robin, still in range.
	for i := 8; i < 20; i++ {
		th := BlockAssign(i, 4, 8)
		if th < 0 || th >= 4 {
			t.Fatalf("assign out of range: %d", th)
		}
	}
	if RoundRobinAssign(7, 4, 0) != 3 {
		t.Error("round robin wrong")
	}
}

func TestFrameCtlBarrierOrdering(t *testing.T) {
	fc := newFrameCtl()
	if role := fc.join(0); role != roleMaster {
		t.Fatalf("first join role = %v", role)
	}
	if role := fc.join(1); role != roleWorker {
		t.Fatalf("second join role = %v", role)
	}
	fc.openRequests()
	if role := fc.join(2); role != roleMissed {
		t.Fatalf("late join role = %v", role)
	}

	done := make(chan int, 2)
	go func() {
		fc.doneRequests(0) // blocks until both arrive
		done <- 1
	}()
	select {
	case <-done:
		t.Fatal("barrier released with one of two participants")
	case <-time.After(20 * time.Millisecond):
	}
	if !fc.doneRequests(1) {
		t.Fatal("live participant reported abandoned at request barrier")
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("barrier never released")
	}

	if ok, promoted := fc.doneReply(0); !ok || promoted {
		t.Fatalf("doneReply(0) = %v, %v; want ok, no promotion", ok, promoted)
	}
	if ok, promoted := fc.doneReply(1); !ok || promoted {
		t.Fatalf("doneReply(1) = %v, %v; want ok, no promotion", ok, promoted)
	}
	fc.waitAllReplied() // must not block now

	endSeen := make(chan struct{})
	go func() {
		fc.waitFrameEnd()
		close(endSeen)
	}()
	time.Sleep(10 * time.Millisecond)
	fc.endFrame()
	select {
	case <-endSeen:
	case <-time.After(time.Second):
		t.Fatal("frame end signal lost")
	}
	if fc.frameNumber() != 1 {
		t.Errorf("frame number = %d", fc.frameNumber())
	}
	// Next frame is joinable again.
	if role := fc.join(2); role != roleMaster {
		t.Errorf("post-frame join role = %v", role)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSequential(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, _ := game.NewWorld(game.Config{Map: m})
	if _, err := NewParallel(Config{World: w, Threads: 4}); err == nil {
		t.Error("parallel config without conns accepted")
	}
	net := transport.NewNetwork(transport.NetworkConfig{})
	c1, _ := net.Listen("")
	if _, err := NewParallel(Config{World: w, Threads: 4, Conns: []transport.Conn{c1}}); err == nil {
		t.Error("conn/thread mismatch accepted")
	}
}

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
	engine *Parallel
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
		World:      w,
		Conns:      conns,
		Threads:    threads,
		Strategy:   strat,
		MaxClients: numBots + 4,
	}
	if mut != nil {
		mut(&cfg)
	}
	eng, err := NewParallel(cfg)
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

// TestParallelEndToEnd drives bots through the engine at every thread
// count, the sequential server (threads=0) included: it runs no region
// locks and so charges no lock time, while every locking row must.
func TestParallelEndToEnd(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 4} {
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
			if total.Ns[metrics.CompExec] == 0 || total.Ns[metrics.CompReply] == 0 {
				t.Errorf("breakdown empty: %s", total.String())
			}
			if locked := total.Ns[metrics.CompLock] != 0; locked != (threads > 0) {
				t.Errorf("lock time charged = %v, want %v: %s", locked, threads > 0, total.String())
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
	srv, err := NewParallel(Config{
		World: w, Conns: []transport.Conn{conn},
		MaxClients: 1,
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

// TestBotResponseTimeIsNotQuantised runs a bot in real time against a
// sequential server, which answers within a few milliseconds. The bot
// must stamp each reply on arrival: reading replies only at its next
// 33 ms frame would make every response time about one frame.
func TestBotResponseTimeIsNotQuantised(t *testing.T) {
	rig := newRig(t, 0, 1, nil)
	bot := rig.bots[0]
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		bot.Run(stop)
		close(done)
	}()
	time.Sleep(500 * time.Millisecond)
	close(stop)
	<-done

	frameMs := 33.0
	if bot.Resp.Latency.N() < 5 {
		t.Fatalf("only %d response-time samples", bot.Resp.Latency.N())
	}
	if mean := bot.Resp.MeanLatencyMs(); mean > frameMs/2 {
		t.Errorf("mean response time %.1f ms, want well under one %.0f ms client frame", mean, frameMs)
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
	if role := fc.join(); role != roleMaster {
		t.Fatalf("first join role = %v", role)
	}
	if role := fc.join(); role != roleWorker {
		t.Fatalf("second join role = %v", role)
	}
	fc.openRequests()
	if role := fc.join(); role != roleMissed {
		t.Fatalf("late join role = %v", role)
	}

	done := make(chan int, 2)
	go func() {
		fc.doneRequests() // blocks until both arrive
		done <- 1
	}()
	select {
	case <-done:
		t.Fatal("barrier released with one of two participants")
	case <-time.After(20 * time.Millisecond):
	}
	fc.doneRequests()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("barrier never released")
	}

	fc.doneReply()
	fc.doneReply()
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
	if role := fc.join(); role != roleMaster {
		t.Errorf("post-frame join role = %v", role)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewParallel(Config{}); err == nil {
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
	c2, _ := net.Listen("")
	if _, err := NewParallel(Config{World: w, Conns: []transport.Conn{c1, c2}}); err == nil {
		t.Error("sequential server with two conns accepted")
	}
	if _, err := NewParallel(Config{World: w, Threads: -1, Conns: []transport.Conn{c1}}); err == nil {
		t.Error("negative thread count accepted")
	}
}

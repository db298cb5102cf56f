package server

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/protocol"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// TestChaosSoak is the robustness acceptance run: 16 bots against the
// live parallel engine through a hostile link (20% loss, 10% reorder, 5%
// duplication, 1% corruption) for 2000 client frames, with one fatal
// fault (a panic) injected mid-run. It must end with zero unexpected
// panics, exactly one eviction (the injected fault's victim), no
// goroutine leaks, and — after the link is healed — every surviving
// bot's delta-reconstructed entity table byte-identical to the server's
// reference snapshot for that viewer.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	const (
		threads = 4
		numBots = 16
		steps   = 2000
	)
	baseGoroutines := runtime.NumGoroutine()

	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	baseNet := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	chaosCfg := transport.FaultConfig{
		Seed:        42,
		DropProb:    0.20,
		ReorderProb: 0.10,
		DupProb:     0.05,
		CorruptProb: 0.01,
	}
	fnet := transport.NewFaultNetwork(baseNet, chaosCfg)

	conns := make([]transport.Conn, threads)
	for i := range conns {
		if conns[i], err = fnet.Listen(fmt.Sprintf("srv:%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// One injected fatal fault: the first request executed after the
	// half-way point panics.
	var stepNo atomic.Int64
	var panicFired atomic.Bool
	var victim atomic.Int32 // clientID+1
	cfg := Config{
		World:      w,
		Conns:      conns,
		Threads:    threads,
		Strategy:   locking.Optimized{},
		MaxClients: numBots + 4,
	}
	cfg.Hooks.PreExec = func(thread int, id uint16) {
		if stepNo.Load() >= steps/2 && panicFired.CompareAndSwap(false, true) {
			victim.Store(int32(id) + 1)
			panic("soak: injected fatal fault")
		}
	}
	par, err := NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par.Start()
	defer par.Stop()

	// Bots connect through the faulty link too; the handshake retries
	// inside Connect absorb the losses.
	bots := make([]*botclient.Bot, numBots)
	for i := range bots {
		bc, err := fnet.Listen(fmt.Sprintf("bot:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		bots[i], err = botclient.New(botclient.Config{
			Name:   fmt.Sprintf("soak-%d", i),
			Conn:   bc,
			Server: transport.MemAddr("srv:0"),
			Map:    m,
			Seed:   int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := bots[i].Connect(); err != nil {
			t.Fatalf("bot %d connect: %v", i, err)
		}
	}

	// The chaos window.
	for f := 0; f < steps; f++ {
		stepNo.Store(int64(f))
		for _, b := range bots {
			b.Step()
		}
		time.Sleep(time.Millisecond)
	}
	if !panicFired.Load() {
		t.Fatal("injected panic never fired")
	}
	victimID := int(victim.Load() - 1)
	if victimID < 0 || victimID >= numBots {
		t.Fatalf("victim client id %d out of bot range", victimID)
	}

	// The eviction count must equal the injected-fatal-fault count.
	waitCond(t, 5*time.Second, func() bool { return par.FaultEvictions() == 1 },
		"injected panic did not evict exactly its victim")
	if n := par.NumClients(); n != numBots-1 {
		t.Errorf("clients after injected fault = %d, want %d", n, numBots-1)
	}

	st := fnet.Stats()
	if st.Dropped == 0 || st.Corrupted == 0 || st.Reordered == 0 || st.Duplicated == 0 {
		t.Errorf("fault injector idle during soak: %+v", st)
	}
	var resyncs, replies int64
	for _, b := range bots {
		resyncs += b.Resyncs
		replies += b.Resp.Replies
	}
	if resyncs == 0 {
		t.Error("no bot ever detected a broken delta stream under 20% loss")
	}
	if replies < int64(numBots*steps/10) {
		t.Errorf("only %d replies across the soak — server mostly unreachable", replies)
	}

	// Heal the link and verify end-state consistency: each surviving
	// bot's reconstructed table must exactly equal the server's reference
	// snapshot for that viewer. A bot is checked while the engine is
	// frozen at a frame boundary; bots whose last move is still in flight
	// simply retry next round (verification steps only unverified bots,
	// so the in-flight set shrinks every round).
	fnet.SetConfig(transport.FaultConfig{Seed: 42})
	verified := make([]bool, numBots)
	verified[victimID] = true // deliberately killed; excluded
	remaining := numBots - 1
	for round := 0; round < 40 && remaining > 0; round++ {
		for i, b := range bots {
			if !verified[i] {
				b.Step()
			}
		}
		time.Sleep(15 * time.Millisecond)
		unfreeze := freezeAtFrameBoundary(par)
		for i, b := range bots {
			if verified[i] {
				continue
			}
			b.Drain()
			viewer := w.Ents.Get(entity.ID(b.EntityID()))
			if viewer == nil {
				t.Fatalf("bot %d: viewer entity gone", i)
			}
			want, _ := w.BuildSnapshot(viewer, nil)
			got, _ := b.EntityTable()
			if statesEqual(got, want) {
				verified[i] = true
				remaining--
			}
		}
		unfreeze()
	}
	if remaining > 0 {
		for i := range bots {
			if !verified[i] {
				got, tag := bots[i].EntityTable()
				t.Errorf("bot %d: table (%d entities, tag %d) never converged to the reference snapshot", i, len(got), tag)
			}
		}
	}

	// Shutdown: no goroutine leaks, exactly one recovered panic.
	par.Stop()
	var bd int64
	for _, b := range par.Breakdowns() {
		bd += b.PanicsRecovered
	}
	if bd != 1 {
		t.Errorf("PanicsRecovered = %d, want exactly the injected one", bd)
	}
	waitCond(t, 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseGoroutines+2
	}, fmt.Sprintf("goroutine leak: %d at start, %d after Stop", baseGoroutines, runtime.NumGoroutine()))
}

// freezeAtFrameBoundary blocks until the engine sits between frames and
// holds it there (join blocks on fc.mu), so the world can be read
// exactly and race-free: every worker's frame writes happened-before the
// controller's state transition to idle. Returns the unfreeze func.
func freezeAtFrameBoundary(s *Parallel) func() {
	s.fc.mu.Lock()
	for s.fc.state != stIdle {
		s.fc.cond.Wait()
	}
	return s.fc.mu.Unlock
}

// statesEqual compares entity tables as sets keyed by entity ID; both
// sides carry identical wire quantization, so equality is exact.
func statesEqual(got, want []protocol.EntityState) bool {
	if len(got) != len(want) {
		return false
	}
	m := make(map[uint16]protocol.EntityState, len(want))
	for _, s := range want {
		m[s.ID] = s
	}
	for _, s := range got {
		if m[s.ID] != s {
			return false
		}
	}
	return true
}

package replay

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// TestChaosSoakReplay records the chaos soak — 16 bots against the live
// parallel engine through a hostile link (20% loss, 10% reorder, 5%
// duplication, 1% corruption) for 2000 client frames, with a fatal
// fault injected mid-run — and then replays the captured log on a
// CLEAN link. The recording is free-running (wall-clock frames, true
// concurrency), so the log is a canonical serialization rather than a
// transcript of one interleaving; the claims proved here are:
//
//  1. The recorder survives chaos: the log validates even though the
//     link duplicated, reordered, and corrupted datagrams (the commit
//     taps only ever see accepted inputs), and the injected eviction is
//     recorded like any other departure.
//  2. Replay needs no faults: the fault-free replay of the faulty run
//     converges — every engine (sequential, parallel, DES) evolves the
//     survivor tables to the same digest, and replaying twice is
//     bit-identical.
func TestChaosSoakReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak replay is a long test")
	}
	const (
		threads = 4
		numBots = 16
		steps   = 2000
	)

	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(m, 42)
	if err != nil {
		t.Fatal(err)
	}
	rec.Reserve(numBots*steps + steps)

	baseNet := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	fnet := transport.NewFaultNetwork(baseNet, transport.FaultConfig{
		Seed:        42,
		DropProb:    0.20,
		ReorderProb: 0.10,
		DupProb:     0.05,
		CorruptProb: 0.01,
	})
	conns := make([]transport.Conn, threads)
	for i := range conns {
		if conns[i], err = fnet.Listen(fmt.Sprintf("srv:%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var stepNo atomic.Int64
	var panicFired atomic.Bool
	cfg := server.Config{
		World:      w,
		Conns:      conns,
		Threads:    threads,
		Strategy:   locking.Optimized{},
		MaxClients: numBots + 4,
		Record:     rec,
	}
	cfg.Hooks.PreExec = func(thread int, id uint16) {
		if stepNo.Load() >= steps/2 && panicFired.CompareAndSwap(false, true) {
			panic("soak-replay: injected fatal fault")
		}
	}
	par, err := server.NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par.Start()
	defer par.Stop()

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
	par.Stop()
	lg := rec.Finish(w)

	// Claim 1: the chaos-era log is internally consistent.
	if err := lg.Validate(); err != nil {
		t.Fatalf("chaos log does not validate: %v", err)
	}
	if lg.Moves() == 0 || lg.Ticks() == 0 {
		t.Fatalf("chaos log is empty: %d moves, %d ticks", lg.Moves(), lg.Ticks())
	}
	evicted := false
	for i := range lg.Items {
		it := &lg.Items[i]
		if it.Kind == KindDisconnect && it.Reason == server.DiscReasonEvict {
			evicted = true
		}
	}
	if !evicted {
		t.Fatal("the injected eviction was not recorded")
	}
	t.Logf("recorded %d moves, %d ticks, %d clients under chaos",
		lg.Moves(), lg.Ticks(), len(lg.Clients()))

	// Claim 2: fault-free replays of the faulty run converge. The
	// recording was free-running, so identity with the original world is
	// reported, not asserted (see DESIGN.md §11); identity across
	// replays and engines IS the assertion.
	seqRes, err := ReplayLive(lg, LiveConfig{Threads: 0})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := ReplayLive(lg, LiveConfig{Threads: threads, Balance: true, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	againRes, err := ReplayLive(lg, LiveConfig{Threads: threads, Balance: true, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	desRes, err := ReplayDES(lg, LiveConfig{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.TableDigest != parRes.TableDigest {
		t.Fatalf("sequential and parallel replays diverged: %016x vs %016x",
			seqRes.TableDigest, parRes.TableDigest)
	}
	if parRes.TableDigest != againRes.TableDigest || parRes.StreamDigest != againRes.StreamDigest {
		t.Fatal("two parallel replays of the same chaos log diverged")
	}
	if desRes.TableDigest != seqRes.TableDigest {
		t.Fatalf("DES replay diverged: %016x vs %016x", desRes.TableDigest, seqRes.TableDigest)
	}
	if seqRes.StreamDigest != parRes.StreamDigest {
		t.Fatalf("reply streams diverged across engines: %016x vs %016x",
			seqRes.StreamDigest, parRes.StreamDigest)
	}
	t.Logf("converged: table %016x, stream %016x, original-end match=%v",
		seqRes.TableDigest, seqRes.StreamDigest, seqRes.EndDigestMatch)
}

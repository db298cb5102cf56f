package replay

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// TestCrashRecoverySoak is the durability headline: a parallel server
// runs the chaos soak — hostile link, injected mid-run panic — while
// streaming its redo log and capturing frame-barrier checkpoints, and is
// then killed abruptly. Only the on-disk artifacts survive: the
// checkpoint directory and a redo log with a torn tail (a kill -9
// mid-write, simulated by appending garbage and never closing the
// recorder). The claims:
//
//  1. Recovery lands exactly on the durable frontier: the world rebuilt
//     from the newest checkpoint plus the redo tail folds to the same
//     digest as a from-genesis replay of the durable log on every
//     engine — sequential, parallel (balance+stealing), and the DES.
//  2. The cut point doesn't matter: recovering from the OLDEST full
//     checkpoint still on disk (the generation pruning keeps behind the
//     current one: a much longer tail) converges on the same digest.
//  3. The restarted server serves the survivors: every client of the
//     crashed session reconnects by name, is resumed onto its exact
//     pre-crash entity, and moves again — while a newcomer joins
//     without colliding with any restored identity.
func TestCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash recovery soak is a long test")
	}
	const (
		threads = 4
		numBots = 12
		steps   = 2000
	)

	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	qrl := filepath.Join(dir, "session.qrl")
	st, err := NewStreamRecorder(qrl, m, 42)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := checkpoint.NewWriter(checkpoint.Config{
		Dir: dir, WorldSeed: 42, Map: m, Interval: 150, DeltaEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}

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
		Record:     st,
		Checkpoint: wr,
	}
	cfg.Hooks.PreExec = func(thread int, id uint16) {
		if stepNo.Load() >= steps/2 && panicFired.CompareAndSwap(false, true) {
			panic("crash-soak: injected fatal fault")
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

	// The kill -9. The engine halts; the stream recorder is deliberately
	// NOT closed (its buffered in-flight frame dies with the process —
	// only per-frame flushes are durable) and a torn write is left at the
	// log's end. The checkpoint writer is closed only to quiesce its
	// flusher goroutine before we read the directory: atomic rename means
	// a real crash leaves at most an orphaned .tmp, never a torn .qck
	// (torn/corrupt checkpoint fallback is covered by
	// TestLoadLatestFallsBack).
	par.Stop()
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(qrl, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0x5A}, 23)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery: newest valid checkpoint + redo tail.
	recoverT0 := time.Now()
	rv, err := Recover(dir, qrl)
	if err != nil {
		t.Fatal(err)
	}
	recoveryNs := time.Since(recoverT0).Nanoseconds()
	if rv.Checkpoint.Frame == 0 {
		t.Fatal("no checkpoint was ever captured during the soak")
	}
	if rv.TailDropped != 23 {
		t.Fatalf("torn tail: dropped %d bytes, expected the 23 garbage bytes", rv.TailDropped)
	}
	recovered := TableDigest(rv.World)
	t.Logf("recovered from checkpoint frame %d (+%d tail items, %d clients, %d bytes torn)",
		rv.Checkpoint.Frame, rv.TailItems, len(rv.Clients), rv.TailDropped)

	// Claim 1: the durable log replayed from genesis on every engine
	// folds to the recovered digest.
	lg, _, err := ReadPrefixFile(qrl)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := ReplayLive(lg, LiveConfig{Threads: 0})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := ReplayLive(lg, LiveConfig{Threads: threads, Balance: true, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	desRes, err := ReplayDES(lg, LiveConfig{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != seqRes.TableDigest {
		t.Fatalf("recovery diverged from the sequential genesis replay: %016x vs %016x",
			recovered, seqRes.TableDigest)
	}
	if recovered != parRes.TableDigest || recovered != desRes.TableDigest {
		t.Fatalf("engines diverged: recovered %016x, parallel %016x, DES %016x",
			recovered, parRes.TableDigest, desRes.TableDigest)
	}

	// Claim 2: recovery is cut-independent — the oldest full image plus
	// its (long) tail lands on the same digest as the newest.
	files, err := checkpoint.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var oldest *checkpoint.Checkpoint
	for _, fi := range files {
		if fi.Full {
			if oldest, err = checkpoint.ReadFile(fi.Path); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if oldest == nil {
		t.Fatal("no full checkpoint on disk")
	}
	rv2, err := RecoverFrom(oldest, lg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if TableDigest(rv2.World) != recovered {
		t.Fatalf("recovery from frame %d diverges from recovery from frame %d: %016x vs %016x",
			oldest.Frame, rv.Checkpoint.Frame, TableDigest(rv2.World), recovered)
	}
	if rv2.TailItems == 0 {
		t.Fatal("oldest-checkpoint recovery replayed no tail — the redo path went unexercised")
	}

	// Claim 3: restart and reconnect. Clean network — the crash took the
	// old bindings — and every survivor comes back by name.
	net2 := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	conns2 := make([]transport.Conn, threads)
	for i := range conns2 {
		if conns2[i], err = net2.Listen(fmt.Sprintf("srv:%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	par2, err := server.NewParallel(server.Config{
		World:      rv.World,
		Conns:      conns2,
		Threads:    threads,
		Strategy:   locking.Optimized{},
		MaxClients: numBots + 4,
		Restore:    rv.RestoreState(recoveryNs),
	})
	if err != nil {
		t.Fatal(err)
	}
	par2.Start()
	defer par2.Stop()

	survivors := make([]*botclient.Bot, 0, len(rv.Clients))
	for i, rec := range rv.Clients {
		bc, err := net2.Listen(fmt.Sprintf("re:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := botclient.New(botclient.Config{
			Name:   rec.Name,
			Conn:   bc,
			Server: transport.MemAddr("srv:0"),
			Map:    m,
			Seed:   int64(200 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Connect(); err != nil {
			t.Fatalf("survivor %q reconnect: %v", rec.Name, err)
		}
		if b.EntityID() != rec.EntID {
			t.Fatalf("survivor %q resumed onto entity %d, pre-crash entity was %d",
				rec.Name, b.EntityID(), rec.EntID)
		}
		if b.ClientID() != rec.ID {
			t.Fatalf("survivor %q got client id %d, pre-crash id was %d",
				rec.Name, b.ClientID(), rec.ID)
		}
		survivors = append(survivors, b)
	}
	// And a newcomer must not collide with any restored identity.
	nc, err := net2.Listen("re:new")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := botclient.New(botclient.Config{
		Name: "newcomer", Conn: nc, Server: transport.MemAddr("srv:0"), Map: m, Seed: 999,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Connect(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range rv.Clients {
		if fresh.EntityID() == rec.EntID || fresh.ClientID() == rec.ID {
			t.Fatalf("newcomer collided with survivor %q (entity %d, client %d)",
				rec.Name, fresh.EntityID(), fresh.ClientID())
		}
	}
	all := append(survivors, fresh)
	for f := 0; f < 120; f++ {
		for _, b := range all {
			b.Step()
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	for _, b := range all {
		b.Drain()
	}
	par2.Stop()
	for i, b := range all {
		if b.Snapshots == 0 {
			t.Errorf("client %d got no snapshots after the restart", i)
		}
		if b.Moved < 20 {
			t.Errorf("client %d barely moved after the restart (%.1f units)", i, b.Moved)
		}
	}
	if par2.Frames() <= rv.Frames {
		t.Errorf("restarted frame counter did not resume past the recovered frame: %d <= %d",
			par2.Frames(), rv.Frames)
	}
	t.Logf("restart served %d survivors + 1 newcomer; frames resumed %d → %d",
		len(survivors), rv.Frames, par2.Frames())
}

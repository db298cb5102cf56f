package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qserve/internal/balance"
	"qserve/internal/locking"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// TestParallelRaceStress exists to be run under -race: a 4-thread server
// with a bot population dense enough to force combat (corpse spawns,
// rail damage, rocket links), item pickups, and cross-plane relinks,
// while a churn goroutine connects, re-connects, moves, and disconnects
// extra sessions against every endpoint concurrently. It asserts only
// liveness — the detector does the real checking.
func TestParallelRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		threads = 4
		numBots = 20
		frames  = 120
	)
	rig := newRig(t, threads, numBots, locking.Optimized{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churn goroutine: duplicate connects (baseline-reset flag from a
	// foreign thread), moves with stale acks (gap invalidation), and
	// disconnects (full-bounds removal racing movers). All sends are
	// error-tolerant: this goroutine must not call t.Fatal.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := rig.net.Listen("churn:0")
		if err != nil {
			return
		}
		defer conn.Close()
		var w protocol.Writer
		send := func(to string, msg any) {
			w.Reset()
			if protocol.Encode(&w, msg) == nil {
				_ = conn.Send(transport.MemAddr(to), w.Bytes())
			}
		}
		seq := uint32(1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			target := fmt.Sprintf("srv:%d", i%threads)
			switch i % 5 {
			case 0, 1:
				send(target, &protocol.Connect{Name: "churn", ProtocolVer: protocol.Version})
			case 2, 3:
				seq++
				send(target, &protocol.Move{
					Seq: seq, Ack: 1, // ancient ack: exercises gap invalidation
					Cmd: protocol.MoveCmd{Forward: 320, Msec: 33, Buttons: protocol.BtnFire},
				})
			case 4:
				send(target, &protocol.Disconnect{})
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	rig.drive(frames, time.Millisecond)
	close(stop)
	wg.Wait()
	rig.engine.Stop()

	if rig.engine.Frames() == 0 {
		t.Fatal("no frames executed")
	}
	if rig.engine.Replies() == 0 {
		t.Fatal("no replies sent")
	}
}

// TestMigrationRaceStress is TestParallelRaceStress with the load
// balancer forced to migrate on every frame: client→thread ownership,
// mux routing, reply baselines, and the forward path for in-flight
// datagrams all churn while connects, moves with stale acks, and
// disconnects hammer every endpoint. Run under -race; the test itself
// asserts only liveness and that migrations actually happened.
func TestMigrationRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		threads = 4
		numBots = 20
		frames  = 120
	)
	rig := newRigCfg(t, threads, numBots, locking.Optimized{}, func(cfg *Config) {
		cfg.Balance = balance.Policy{Enabled: true, EveryFrame: true, MaxMigrations: 8}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := rig.net.Listen("churn-mig:0")
		if err != nil {
			return
		}
		defer conn.Close()
		var w protocol.Writer
		send := func(to string, msg any) {
			w.Reset()
			if protocol.Encode(&w, msg) == nil {
				_ = conn.Send(transport.MemAddr(to), w.Bytes())
			}
		}
		seq := uint32(1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Spray every endpoint: after migrations most of these arrive at
			// a non-owning thread, exercising the mux forward path under
			// contention.
			target := fmt.Sprintf("srv:%d", i%threads)
			switch i % 5 {
			case 0:
				send(target, &protocol.Connect{Name: "churn-mig", ProtocolVer: protocol.Version})
			case 1, 2, 3:
				seq++
				send(target, &protocol.Move{
					Seq: seq, Ack: 1,
					Cmd: protocol.MoveCmd{Forward: 320, Msec: 33, Buttons: protocol.BtnFire},
				})
			case 4:
				send(target, &protocol.Disconnect{})
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	rig.drive(frames, time.Millisecond)
	close(stop)
	wg.Wait()
	rig.engine.Stop()

	if rig.engine.Frames() == 0 {
		t.Fatal("no frames executed")
	}
	if rig.engine.Replies() == 0 {
		t.Fatal("no replies sent")
	}
	if rig.engine.Migrations() == 0 {
		t.Fatal("balancer never migrated a client during the stress run")
	}
	for i, b := range rig.bots {
		if b.Snapshots == 0 {
			t.Errorf("bot %d received no snapshots across migrations", i)
		}
	}
}

// TestLiveCountersPolledWhileRunning exists to be run under -race: the
// counters an operator polls on a running server (qserved's -stats
// ticker reads Frames, Replies and NumClients from its own goroutine)
// must be readable while bots drive either engine.
func TestLiveCountersPolledWhileRunning(t *testing.T) {
	for _, threads := range []int{0, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			rig := newRig(t, threads, 4, locking.Optimized{})
			stop := make(chan struct{})
			polled := make(chan uint64)
			go func() {
				var frames uint64
				for {
					select {
					case <-stop:
						polled <- frames
						return
					default:
					}
					frames = rig.engine.Frames()
					_ = rig.engine.Replies()
					_ = rig.engine.NumClients()
					time.Sleep(200 * time.Microsecond)
				}
			}()
			rig.drive(40, time.Millisecond)
			close(stop)
			if frames := <-polled; frames == 0 {
				t.Error("poller never saw a completed frame")
			}
		})
	}
}

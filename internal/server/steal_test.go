package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qserve/internal/balance"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/protocol"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// assignAllToZero pins every client to thread 0, so threads 1..N-1 can
// only ever execute requests by stealing them — the strongest forcing of
// the work-stealing scheduler the rig can express.
func assignAllToZero(int, int, int) int { return 0 }

// stealSum totals the steal counters across worker breakdowns.
func stealSum(par *Parallel) (steals, conflicts int64) {
	for _, b := range par.Breakdowns() {
		steals += b.Steals
		conflicts += b.StealConflicts
	}
	return
}

// TestStealingRaceStress exists to be run under -race: stealing forced
// (every client owned by thread 0, so all other threads serve purely by
// stealing), the balancer migrating every frame (ownership, routing, and
// reply baselines churn under the thieves), and a churn goroutine
// spraying connects, stale-ack moves, and disconnects at every endpoint.
// Liveness plus actually-stolen work are asserted; the race detector does
// the real checking.
func TestStealingRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		threads = 4
		numBots = 20
		frames  = 120
	)
	rig := newRigCfg(t, threads, numBots, locking.Optimized{}, func(cfg *Config) {
		cfg.Stealing = true
		cfg.Hooks.Assign = assignAllToZero
		cfg.Balance = balance.Policy{Enabled: true, EveryFrame: true, MaxMigrations: 8}
		// Hold frames open so other threads' selects join them — stealing
		// needs multi-thread frames to engage at all.
		cfg.Hooks.BatchDelay = 3 * time.Millisecond
		// Deschedule mid-execution so pools stay claimable while their
		// owner works. On a multi-core host the thieves run concurrently
		// anyway; on a single-CPU CI host the owner would otherwise drain
		// its whole pool in one scheduling quantum and thieves would only
		// ever see empty pools.
		cfg.Hooks.PreExec = func(int, uint16) { time.Sleep(20 * time.Microsecond) }
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := rig.net.Listen("churn-steal:0")
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
			case 0:
				send(target, &protocol.Connect{Name: "churn-steal", ProtocolVer: protocol.Version})
			case 1, 2, 3:
				seq++
				send(target, &protocol.Move{
					Seq: seq, Ack: 1, // ancient ack: exercises gap invalidation off-owner
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
	par := rig.engine
	if par.Migrations() == 0 {
		t.Fatal("balancer never migrated a client during the stress run")
	}
	steals, _ := stealSum(par)
	if steals == 0 {
		t.Fatal("no request was ever stolen: the scheduler under test never engaged")
	}
	for i, b := range rig.bots {
		if b.Snapshots == 0 {
			t.Errorf("bot %d received no snapshots under stealing+migration", i)
		}
	}
}

// TestStealingPanicOnStolenRequest is the chaos arm: a request panics
// exactly when a thief executes it (PreExec reports a thread other than
// the owner, and every client is owned by thread 0). The victim client
// must be evicted, the thief must survive and keep serving, and the
// server must end the run with every other client intact.
func TestStealingPanicOnStolenRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		threads = 4
		numBots = 12
		frames  = 150
	)
	var panicFired atomic.Bool
	var victim atomic.Int32 // clientID+1
	var panicThread atomic.Int32
	rig := newRigCfg(t, threads, numBots, locking.Optimized{}, func(cfg *Config) {
		cfg.Stealing = true
		cfg.Hooks.Assign = assignAllToZero
		cfg.Hooks.BatchDelay = 3 * time.Millisecond
		cfg.Hooks.PreExec = func(thread int, id uint16) {
			// Deschedule so pooled entries stay claimable while thread 0
			// works (see TestStealingRaceStress); all clients are owned by
			// thread 0, so any other executing thread means the request
			// was stolen.
			time.Sleep(20 * time.Microsecond)
			if thread != 0 && panicFired.CompareAndSwap(false, true) {
				victim.Store(int32(id) + 1)
				panicThread.Store(int32(thread))
				panic("steal-test: injected fault on stolen request")
			}
		}
	})

	// Threads 1..3 own no clients (the mux routes every bot's gameplay
	// traffic to thread 0), so without unrouted traffic at their endpoints
	// they would never wake into a frame to steal. Ping them continuously.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := rig.net.Listen("pinger-steal:0")
		if err != nil {
			return
		}
		defer conn.Close()
		var w protocol.Writer
		var nonce uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 1; i < threads; i++ {
				nonce++
				w.Reset()
				if protocol.Encode(&w, &protocol.Ping{Nonce: nonce}) == nil {
					_ = conn.Send(transport.MemAddr(fmt.Sprintf("srv:%d", i)), w.Bytes())
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	rig.drive(frames, time.Millisecond)
	close(stop)
	wg.Wait()
	rig.engine.Stop()
	par := rig.engine

	if !panicFired.Load() {
		t.Fatal("no request was ever stolen: the injected fault never fired")
	}
	waitCond(t, 5*time.Second, func() bool { return par.FaultEvictions() == 1 },
		"stolen-request panic did not evict exactly its victim")
	if n := par.NumClients(); n != numBots-1 {
		t.Errorf("clients after stolen-request fault = %d, want %d", n, numBots-1)
	}
	var recovered int64
	for _, b := range par.Breakdowns() {
		recovered += b.PanicsRecovered
	}
	if recovered != 1 {
		t.Errorf("PanicsRecovered = %d, want exactly the injected one", recovered)
	}
	// The thief survived: the run kept producing frames and replies long
	// after the fault (the fault fires on the first steal, which the
	// forced assignment makes happen within the first frames).
	if rig.engine.Replies() == 0 {
		t.Fatal("no replies sent")
	}
	victimID := int(victim.Load() - 1)
	alive := 0
	for i, b := range rig.bots {
		if i == victimID {
			continue
		}
		if b.Snapshots > 0 {
			alive++
		}
	}
	if alive != numBots-1 {
		t.Errorf("only %d/%d surviving bots kept receiving snapshots", alive, numBots-1)
	}
}

// TestPoolScanBlocksClientOnFailedClaim is the deterministic regression
// for a real ordering bug: a scan whose claim CAS failed used to just
// skip that entry, assuming the client's later entries would fail the
// same CAS. But claims are released without the pool mutex, so the
// holder (a thief finishing the client's earlier request) can release
// mid-scan, and the same scan would then claim a LATER entry — the
// later move commits first, and the overtaken one is silently dropped
// by the seq filter. The test hooks exactly that window: the claim is
// released the moment the scan observes it held, and the scan must
// still refuse every later entry of the client.
func TestPoolScanBlocksClientOnFailedClaim(t *testing.T) {
	c := &client{}
	var p stealPool
	p.push(poolEntry{Client: c, Owner: 0, Idx: 0})
	p.push(poolEntry{Client: c, Owner: 0, Idx: 1})

	// An earlier request of this client is in flight on another worker.
	c.claim.Store(99)
	p.scanClaimHook = func(hc *client) {
		// ... and it completes immediately after the scan sees the claim.
		hc.claim.Store(0)
	}

	// A thief's take is a single scan: the failed CAS at idx 0 must
	// block the client outright, never fall through to idx 1.
	thief := &worker{id: 1}
	if e, ok := p.take(thief, true, 0); ok {
		t.Fatalf("thief scan claimed idx=%d of a client blocked at its oldest entry", e.Idx)
	}

	// An owner's take retries with a fresh scan, which may legitimately
	// claim the now-released client — but only at its OLDEST entry. The
	// buggy scan claimed idx 1 here, committing it ahead of idx 0.
	c.claim.Store(99)
	w := &worker{id: 0}
	e, ok := p.take(w, false, 0)
	if !ok {
		t.Fatal("owner take found nothing despite the released claim")
	}
	if e.Idx != 0 {
		t.Fatalf("scan claimed idx=%d ahead of the client's oldest entry", e.Idx)
	}
	c.claim.Store(0)
	p.scanClaimHook = nil
	if e, ok := p.take(w, false, 0); !ok || e.Idx != 1 {
		t.Fatalf("remaining entry = (%v, idx=%d), want idx=1", ok, e.Idx)
	}
}

// TestPoolScanPreservesPerClientFIFO is the stress arm of the same
// ordering regression: two executors hammer one client's pool, holding
// each claim across a reschedule so the other's scans keep colliding
// with it, and the recorded commit order must be exactly the arrival
// order. On a multi-core host this also exercises the real wall-clock
// race the deterministic hook test above pins.
func TestPoolScanPreservesPerClientFIFO(t *testing.T) {
	const entries = 2000
	c := &client{}
	var p stealPool
	for i := 0; i < entries; i++ {
		p.push(poolEntry{Client: c, Owner: 0, Idx: i})
	}

	var mu sync.Mutex
	var got []int
	deadline := time.Now().Add(30 * time.Second)
	run := func(w *worker) {
		for {
			e, ok := p.take(w, false, 0)
			if !ok {
				mu.Lock()
				done := len(got) == entries
				mu.Unlock()
				if done {
					return
				}
				if time.Now().After(deadline) {
					return
				}
				runtime.Gosched()
				continue
			}
			mu.Lock()
			got = append(got, e.Idx)
			mu.Unlock()
			// Hold the claim across a reschedule so the other executor's
			// scans keep observing it held, then release mid-whatever scan
			// is running — the exact window the memo must cover.
			runtime.Gosched()
			c.claim.Store(0)
		}
	}
	var wg sync.WaitGroup
	for _, w := range []*worker{{id: 0}, {id: 1}} {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			run(w)
		}(w)
	}
	wg.Wait()

	if len(got) != entries {
		t.Fatalf("executed %d/%d entries before the deadline", len(got), entries)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("per-client FIFO violated: position %d committed entry %d", i, idx)
		}
	}
}

// plainClient is the discrete-event engine's shape of a client handle: the
// claim is a plain bool, because one context runs at a time.
type plainClient struct{ claimed bool }

func claimPlain(c *plainClient) bool {
	if c.claimed {
		return false
	}
	c.claimed = true
	return true
}

// TestStealPoolPlainClaim runs the shared pool the way the DES
// instantiates it: a client's second entry is not taken while its first
// is claimed, by owner or thief, and other clients' entries still are.
func TestStealPoolPlainClaim(t *testing.T) {
	a, b := &plainClient{}, &plainClient{}
	var p StealPool[*plainClient, int]
	p.Push(StealEntry[*plainClient, int]{Client: a, Idx: 0})
	p.Push(StealEntry[*plainClient, int]{Client: a, Idx: 1})
	p.Push(StealEntry[*plainClient, int]{Client: b, Idx: 2})

	if e, ok := p.Take(false, 0, claimPlain); !ok || e.Idx != 0 {
		t.Fatalf("first take = (%v, idx=%d), want a's oldest entry", ok, e.Idx)
	}
	// a is mid-execution: its second entry must wait, b's must not.
	if e, ok := p.Take(true, 0, claimPlain); !ok || e.Client != b {
		t.Fatalf("take while a is claimed = (%v, idx=%d), want b's entry", ok, e.Idx)
	}
	if e, ok := p.Take(false, 0, claimPlain); ok {
		t.Fatalf("took idx=%d of a client whose first entry is still claimed", e.Idx)
	}
	a.claimed = false
	if e, ok := p.Take(true, 0, claimPlain); !ok || e.Idx != 1 || !a.claimed {
		t.Fatalf("after release = (%v, idx=%d, claimed=%v), want a's second entry", ok, e.Idx, a.claimed)
	}
}

// TestStealPoolParkRequeueOrder pins where a parked entry re-enters the
// pool — behind other clients when it is its client's only entry, ahead
// of the client's later entries otherwise — and the scan rules for
// entries whose park budget is spent or whose hint conflicts.
func TestStealPoolParkRequeueOrder(t *testing.T) {
	type entry = StealEntry[*plainClient, int]
	a, b := &plainClient{}, &plainClient{}
	var p StealPool[*plainClient, int]
	order := func() (got []int) {
		for {
			e, ok := p.Take(false, 0, func(*plainClient) bool { return true })
			if !ok {
				return got
			}
			got = append(got, e.Idx)
		}
	}

	// Sole entry of its client: parked behind b's.
	p.Push(entry{Client: b, Idx: 1})
	p.Requeue(entry{Client: a, Idx: 0, Parks: 1})
	if got := order(); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("sole parked entry: order %v, want [1 0]", got)
	}

	// A later entry of the client is pooled: parked at the front, both
	// with the head advanced (slot reuse) and at the slice start.
	for _, popFirst := range []bool{true, false} {
		if popFirst {
			p.Push(entry{Client: b, Idx: 9})
		}
		p.Push(entry{Client: b, Idx: 1})
		if popFirst {
			p.Take(false, 0, func(*plainClient) bool { return true })
		}
		p.Push(entry{Client: a, Idx: 2})
		p.Requeue(entry{Client: a, Idx: 0, Parks: 1})
		if got := order(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("parked entry with a successor (popFirst=%v): order %v, want [0 1 2]", popFirst, got)
		}
	}

	// Blocking-mode entries run last for the owner and never for a thief,
	// and block their client's later entries meanwhile.
	p.Push(entry{Client: a, Idx: 0, Parks: MaxStealParks})
	p.Push(entry{Client: a, Idx: 1})
	p.Push(entry{Client: b, Idx: 2})
	if e, ok := p.Take(true, 0, claimPlain); !ok || e.Idx != 2 {
		t.Fatalf("thief take = (%v, idx=%d), want b's entry past the blocking-mode client", ok, e.Idx)
	}
	if e, ok := p.Take(true, 0, claimPlain); ok {
		t.Fatalf("thief took blocking-mode client's idx=%d", e.Idx)
	}
	if e, ok := p.Take(false, 0, claimPlain); !ok || e.Idx != 0 {
		t.Fatalf("owner fallback = (%v, idx=%d), want the blocking-mode entry", ok, e.Idx)
	}
	a.claimed, b.claimed = false, false

	// A hint that intersects the avoid mask defers the entry (and the
	// client) for owner and thief alike; a disjoint mask does not.
	p.Push(entry{Client: b, Idx: 3, Hint: 0b0110})
	if e, ok := p.Take(false, 0b0100, claimPlain); !ok || e.Idx != 1 {
		t.Fatalf("take under conflict = (%v, idx=%d), want a's unhinted entry", ok, e.Idx)
	}
	if e, ok := p.Take(false, 0b0100, claimPlain); ok {
		t.Fatalf("took idx=%d although its hint intersects the avoid mask", e.Idx)
	}
	if e, ok := p.Take(true, 0b1000, claimPlain); !ok || e.Idx != 3 {
		t.Fatalf("take with disjoint mask = (%v, idx=%d), want idx=3", ok, e.Idx)
	}
	if e, ok := p.Take(false, 0, func(*plainClient) bool { return true }); ok {
		t.Fatalf("pool still holds idx=%d after every take", e.Idx)
	}
}

// TestStealPoolScanBound pins the blocked-client memo's bound on both
// instantiations: a scan that has skipped scanBlockMax distinct clients
// stops there, leaving deeper entries to a later scan.
func TestStealPoolScanBound(t *testing.T) {
	var p StealPool[*plainClient, int]
	busy := make([]*plainClient, scanBlockMax+1)
	for i := range busy {
		busy[i] = &plainClient{claimed: true}
		p.Push(StealEntry[*plainClient, int]{Client: busy[i], Idx: i})
	}
	free := &plainClient{}
	p.Push(StealEntry[*plainClient, int]{Client: free, Idx: len(busy)})
	if e, ok := p.Take(false, 0, claimPlain); ok {
		t.Fatalf("scan walked past %d blocked clients and took idx=%d", scanBlockMax, e.Idx)
	}
	// One fewer blocked client ahead and the same entry is reachable.
	busy[0].claimed = false
	if e, ok := p.Take(false, 0, claimPlain); !ok || e.Idx != 0 {
		t.Fatalf("take = (%v, idx=%d), want the released head entry", ok, e.Idx)
	}
	if e, ok := p.Take(false, 0, claimPlain); !ok || e.Client != free {
		t.Fatalf("take = (%v, idx=%d), want the free client behind %d blocked ones", ok, e.Idx, scanBlockMax)
	}
}

// newIdleParallel builds an unstarted Parallel for unit-testing the
// scheduler's bookkeeping paths directly (no worker goroutines run).
func newIdleParallel(t *testing.T, threads int) *Parallel {
	t.Helper()
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 64})
	conns := make([]transport.Conn, threads)
	for i := range conns {
		c, err := net.Listen(fmt.Sprintf("idle:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewParallel(Config{World: w, Conns: conns, Threads: threads, Stealing: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClaimForRemovalBoundedSpin pins the removal path's escape hatch:
// when a claim holder never releases (a wedged executor with the
// watchdog disabled), claimForRemoval must give up within its timeout
// and report false instead of wedging the removing worker too.
func TestClaimForRemovalBoundedSpin(t *testing.T) {
	s := newIdleParallel(t, 2)
	w := s.workers[0]

	// Unclaimed client: removal wins the claim, marks gone, releases.
	c := &client{}
	if !s.claimForRemoval(w, c) {
		t.Fatal("claimForRemoval failed on an unclaimed client")
	}
	if !c.gone.Load() || c.claim.Load() != 0 {
		t.Fatalf("after removal claim: gone=%v claim=%d, want true/0", c.gone.Load(), c.claim.Load())
	}

	// Caller already holds the claim (panic containment evicting the
	// client it was serving): proceed without touching the claim.
	c2 := &client{}
	c2.claim.Store(int32(w.id) + 1)
	if !s.claimForRemoval(w, c2) {
		t.Fatal("claimForRemoval failed for the claim holder itself")
	}
	if !c2.gone.Load() || c2.claim.Load() != int32(w.id)+1 {
		t.Fatalf("holder path must keep its claim: gone=%v claim=%d", c2.gone.Load(), c2.claim.Load())
	}

	// A claim wedged by another worker: give up within the timeout.
	c3 := &client{}
	c3.claim.Store(int32(s.workers[1].id) + 1)
	start := time.Now()
	if s.claimForRemoval(w, c3) {
		t.Fatal("claimForRemoval succeeded against a never-released claim")
	}
	if waited := time.Since(start); waited > 10*claimRemovalTimeout {
		t.Fatalf("claimForRemoval spun %v, want bounded near %v", waited, claimRemovalTimeout)
	}
	if c3.gone.Load() {
		t.Error("timed-out removal must not mark the client gone")
	}
}

// TestParallel65Workers runs a pool one wider than a 64-bit worker mask
// with its only client on worker 64: frames must advance and the client
// must be served by the widest worker id.
func TestParallel65Workers(t *testing.T) {
	const threads = 65
	rig := newRigCfg(t, threads, 1, locking.Optimized{}, func(cfg *Config) {
		cfg.Hooks.Assign = func(int, int, int) int { return threads - 1 }
	})
	rig.drive(60, 2*time.Millisecond)
	if rig.engine.Frames() == 0 {
		t.Fatal("no frames with 65 workers")
	}
	if rig.bots[0].Resp.Replies == 0 {
		t.Fatal("the client on worker 64 got no replies")
	}
	rig.engine.Stop()
	if got := rig.engine.Breakdowns()[threads-1].ExecCmds; got == 0 {
		t.Error("worker 64 executed no commands")
	}
}

// TestFwdFreezeExpired pins the forward-stamp expiry arithmetic the
// rebalance sweep relies on: fresh stamps freeze, the boundary falls
// exactly at fwdFreezeFrames, and a stamp at or past the sweep's frame
// keeps the freeze instead of wrapping uint64 and expiring it.
func TestFwdFreezeExpired(t *testing.T) {
	cases := []struct {
		name         string
		stamp, frame uint64
		expired      bool
	}{
		{"fresh stamp frozen", 100, 100, false},
		{"one frame old", 100, 101, false},
		{"just inside window", 100, 100 + fwdFreezeFrames - 1, false},
		{"exactly at window", 100, 100 + fwdFreezeFrames, true},
		{"far past window", 100, 100 + 10*fwdFreezeFrames, true},
		{"future stamp stays frozen", 101, 100, false},
		{"far-future stamp stays frozen", 100 + fwdFreezeFrames, 100, false},
		{"would-wrap delta stays frozen", ^uint64(0), 1, false},
		{"early frames, inside window", 1, fwdFreezeFrames, false},
		{"early frames, at window", 1, fwdFreezeFrames + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := fwdFreezeExpired(tc.stamp, tc.frame); got != tc.expired {
				t.Errorf("fwdFreezeExpired(%d, %d) = %v, want %v", tc.stamp, tc.frame, got, tc.expired)
			}
		})
	}
}

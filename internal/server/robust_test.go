package server

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// --- frame controller abandonment -----------------------------------

// TestFrameCtlAbandonAtRequestBarrier: a participant stuck before its
// doneRequests is abandoned; the remaining participant's barrier opens
// without it, and the zombie's own barrier calls report abandonment.
func TestFrameCtlAbandonAtRequestBarrier(t *testing.T) {
	fc := newFrameCtl()
	if fc.join(0) != roleMaster || fc.join(1) != roleWorker {
		t.Fatal("bad roles")
	}
	fc.openRequests()

	released := make(chan bool, 1)
	go func() { released <- fc.doneRequests(0) }()
	select {
	case <-released:
		t.Fatal("request barrier released with a participant outstanding")
	case <-time.After(20 * time.Millisecond):
	}

	// Worker 1 wedges; the watchdog abandons it.
	if !fc.abandon(1) {
		t.Fatal("abandon refused a live participant")
	}
	select {
	case ok := <-released:
		if !ok {
			t.Fatal("surviving participant reported abandoned")
		}
	case <-time.After(time.Second):
		t.Fatal("request barrier never released after abandonment")
	}

	// The zombie's own barrier entries must fail.
	if fc.doneRequests(1) {
		t.Error("zombie doneRequests returned ok")
	}
	if ok, _ := fc.doneReply(1); ok {
		t.Error("zombie doneReply returned ok")
	}
	if !fc.isZombie(1) {
		t.Error("abandoned worker not marked zombie")
	}

	// The survivor (the master) finishes the frame alone.
	if ok, promoted := fc.doneReply(0); !ok || promoted {
		t.Fatalf("doneReply(0) = %v, %v", ok, promoted)
	}
	fc.waitAllReplied()
	fc.endFrame()
	if fc.frameNumber() != 1 {
		t.Errorf("frame number = %d, want 1", fc.frameNumber())
	}

	// Until it acquits, the zombie stays one; after acquitting it can
	// join the next frame.
	fc.acquit(1)
	if fc.isZombie(1) {
		t.Error("acquit did not clear the zombie mark")
	}
	if role := fc.join(1); role != roleMaster {
		t.Errorf("post-acquit join role = %v, want master", role)
	}
}

// TestFrameCtlMasterAbandonedPromotion: the master is abandoned during
// the reply phase; the last active participant to finish its replies is
// promoted to close the frame.
func TestFrameCtlMasterAbandonedPromotion(t *testing.T) {
	fc := newFrameCtl()
	fc.join(0) // master
	fc.join(1)
	fc.openRequests()
	done := make(chan bool, 1)
	go func() { done <- fc.doneRequests(0) }()
	if !fc.doneRequests(1) {
		t.Fatal("doneRequests(1) failed")
	}
	if ok := <-done; !ok {
		t.Fatal("doneRequests(0) failed")
	}

	// Master wedges mid-reply; watchdog abandons it.
	if !fc.abandon(0) {
		t.Fatal("abandon refused the master")
	}
	ok, promoted := fc.doneReply(1)
	if !ok || !promoted {
		t.Fatalf("doneReply(1) = ok=%v promoted=%v, want promotion", ok, promoted)
	}
	fc.waitAllReplied()
	fc.endFrame()
	if fc.frameNumber() != 1 {
		t.Errorf("frame number = %d, want 1", fc.frameNumber())
	}
}

// TestFrameCtlMasterAbandonedAfterAllReplied: everyone already called
// doneReply when the master is abandoned — no future doneReply can claim
// promotion, so abandon itself must close the frame.
func TestFrameCtlMasterAbandonedAfterAllReplied(t *testing.T) {
	fc := newFrameCtl()
	fc.join(0) // master
	fc.join(1)
	fc.openRequests()
	go fc.doneRequests(0)
	fc.doneRequests(1)
	if ok, promoted := fc.doneReply(1); !ok || promoted {
		t.Fatalf("doneReply(1) = %v %v", ok, promoted)
	}
	// Master wedged between its barrier exit and doneReply: its replies
	// never arrive, and worker 1 has already left the frame.
	if !fc.abandon(0) {
		t.Fatal("abandon refused")
	}
	waitFrame(t, fc, 1)
}

// TestFrameCtlMasterAbandonedInWorldPhase: requests never open, so the
// controller collapses the frame and waiting workers escape with !ok.
func TestFrameCtlMasterAbandonedInWorldPhase(t *testing.T) {
	fc := newFrameCtl()
	fc.join(0) // master, wedged in the world update
	fc.join(1)
	escaped := make(chan bool, 1)
	go func() { escaped <- fc.waitRequestsOpen(1) }()
	select {
	case <-escaped:
		t.Fatal("waitRequestsOpen returned before the world phase ended")
	case <-time.After(20 * time.Millisecond):
	}
	if !fc.abandon(0) {
		t.Fatal("abandon refused")
	}
	select {
	case ok := <-escaped:
		if ok {
			t.Fatal("worker reported a live frame after collapse")
		}
	case <-time.After(time.Second):
		t.Fatal("worker stuck in waitRequestsOpen after frame collapse")
	}
	waitFrame(t, fc, 1)
}

// TestFrameCtlAllParticipantsAbandoned: with every participant a zombie
// the controller must close the frame itself.
func TestFrameCtlAllParticipantsAbandoned(t *testing.T) {
	fc := newFrameCtl()
	fc.join(0)
	fc.openRequests()
	if !fc.abandon(0) {
		t.Fatal("abandon refused")
	}
	waitFrame(t, fc, 1)
	// Double abandon is refused.
	if fc.abandon(0) {
		t.Error("second abandon of the same worker succeeded")
	}
}

func waitFrame(t *testing.T, fc *frameCtl, want uint64) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for fc.frameNumber() < want {
		if time.Now().After(deadline) {
			t.Fatalf("frame number stuck at %d, want %d", fc.frameNumber(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- watchdog ---------------------------------------------------------

// TestWatchdogQuarantinesWedgedWorker injects a finite wedge (a PreExec
// hook that sleeps far past the deadline) into one worker and asserts
// the watchdog detects it while it is still stuck, quarantines the
// client it was serving, and that clients on other threads keep being
// served throughout.
func TestWatchdogQuarantinesWedgedWorker(t *testing.T) {
	const (
		deadline   = 100 * time.Millisecond
		wedgeSleep = 400 * time.Millisecond
		numBots    = 4
	)
	var wedged atomic.Bool
	var wedgedClient atomic.Int32 // id+1
	var wedgedThread atomic.Int32
	rig := newRigCfg(t, 2, numBots, locking.Optimized{}, func(cfg *Config) {
		cfg.Assign = RoundRobinAssign // split the bots across both threads
		cfg.WatchdogDeadline = deadline
		cfg.QuarantineWedged = true
		cfg.Hooks.PreExec = func(thread int, id uint16) {
			if wedged.CompareAndSwap(false, true) {
				wedgedClient.Store(int32(id) + 1)
				wedgedThread.Store(int32(thread))
				time.Sleep(wedgeSleep)
			}
		}
	})
	par := rig.engine.(*Parallel)

	// Drive through the wedge. Mid-wedge, snapshot the replies of the
	// bots on the healthy thread; they must keep growing while the other
	// thread sleeps.
	var mid1, mid2 []int64
	for step := 0; step < 300; step++ {
		for _, b := range rig.bots {
			b.Step()
		}
		switch step {
		case 80: // ~160ms in: wedge detected, still sleeping
			mid1 = replyCounts(rig.bots)
		case 160: // ~320ms in: still sleeping
			mid2 = replyCounts(rig.bots)
		}
		time.Sleep(2 * time.Millisecond)
	}

	wedges := par.Wedges()
	if len(wedges) == 0 {
		t.Fatal("watchdog recorded no wedge")
	}
	rec := wedges[0]
	if rec.Phase != wpRequest {
		t.Errorf("wedge phase = %d, want request", rec.Phase)
	}
	if rec.StuckFor < deadline || rec.StuckFor >= wedgeSleep {
		t.Errorf("detection latency %v outside [%v, %v): watchdog fired too early or after the wedge resolved",
			rec.StuckFor, deadline, wedgeSleep)
	}
	if !rec.HasClient || int32(rec.ClientID)+1 != wedgedClient.Load() {
		t.Errorf("wedge blamed client %d/%v, hook wedged on %d",
			rec.ClientID, rec.HasClient, wedgedClient.Load()-1)
	}
	if rec.Worker != int(wedgedThread.Load()) {
		t.Errorf("wedge blamed worker %d, hook ran on %d", rec.Worker, wedgedThread.Load())
	}

	// The healthy thread's clients were served during the wedge.
	if mid1 == nil || mid2 == nil {
		t.Fatal("mid-wedge snapshots missing")
	}
	healthyGrew := false
	for i := range rig.bots {
		if i%2 != int(wedgedThread.Load()) && mid2[i] > mid1[i] {
			healthyGrew = true
		}
	}
	if !healthyGrew {
		t.Error("no healthy-thread client was served while the other thread was wedged")
	}

	// After recovery: exactly the wedged client was evicted, everyone
	// else is still connected, and the engine is still framing.
	waitCond(t, 2*time.Second, func() bool {
		return par.FaultEvictions() == 1 && par.NumClients() == numBots-1
	}, "wedged client never evicted")
	framesBefore := par.Frames()
	for step := 0; step < 20; step++ {
		for _, b := range rig.bots {
			b.Step()
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitCond(t, time.Second, func() bool { return par.Frames() > framesBefore },
		"engine stopped framing after recovery")

	rig.engine.Stop()
	var wedgeCount int64
	for _, bd := range rig.engine.Breakdowns() {
		wedgeCount += bd.WedgesDetected
	}
	if wedgeCount == 0 {
		t.Error("WedgesDetected not surfaced in breakdowns")
	}
}

func replyCounts(bots []*botclient.Bot) []int64 {
	out := make([]int64, len(bots))
	for i, b := range bots {
		out[i] = b.Resp.Replies
	}
	return out
}

func waitCond(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- panic containment ------------------------------------------------

// TestPanicContainmentParallel injects one panic into a request handler
// and asserts the worker survives, the offending client is evicted, and
// the server keeps serving everyone else.
func TestPanicContainmentParallel(t *testing.T) {
	const numBots = 4
	var fired atomic.Bool
	var victim atomic.Int32 // id+1
	rig := newRigCfg(t, 2, numBots, locking.Optimized{}, func(cfg *Config) {
		cfg.Assign = RoundRobinAssign
		cfg.Hooks.PreExec = func(thread int, id uint16) {
			if fired.CompareAndSwap(false, true) {
				victim.Store(int32(id) + 1)
				panic("injected fault: corrupted request state")
			}
		}
	})
	par := rig.engine.(*Parallel)

	rig.drive(80, 2*time.Millisecond)

	waitCond(t, 2*time.Second, func() bool {
		return par.FaultEvictions() == 1 && par.NumClients() == numBots-1
	}, "panicking request's client never evicted")

	// Everyone else is still served after the panic.
	before := replyCounts(rig.bots)
	rig.drive(40, 2*time.Millisecond)
	after := replyCounts(rig.bots)
	served := 0
	for i := range rig.bots {
		if int32(i)+1 != victim.Load() && after[i] > before[i] {
			served++
		}
	}
	if served < numBots-1 {
		t.Errorf("only %d of %d surviving clients served after the panic", served, numBots-1)
	}

	rig.engine.Stop()
	var panics int64
	for _, bd := range rig.engine.Breakdowns() {
		panics += bd.PanicsRecovered
	}
	if panics != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", panics)
	}
}

// TestPanicContainmentSequential is the same fault on the sequential
// engine: the loop recovers, evicts, and keeps serving.
func TestPanicContainmentSequential(t *testing.T) {
	const numBots = 3
	var fired atomic.Bool
	rig := newRigCfg(t, 0, numBots, nil, func(cfg *Config) {
		cfg.Hooks.PreExec = func(thread int, id uint16) {
			if fired.CompareAndSwap(false, true) {
				panic("injected fault")
			}
		}
	})
	seq := rig.engine.(*Sequential)

	rig.drive(80, 2*time.Millisecond)
	waitCond(t, 2*time.Second, func() bool {
		return seq.FaultEvictions() == 1 && seq.NumClients() == numBots-1
	}, "sequential engine never evicted the panicking client")

	before := replyCounts(rig.bots)
	rig.drive(40, 2*time.Millisecond)
	after := replyCounts(rig.bots)
	served := 0
	for i := range rig.bots {
		if after[i] > before[i] {
			served++
		}
	}
	if served < numBots-1 {
		t.Errorf("only %d of %d surviving clients served after the panic", served, numBots-1)
	}

	rig.engine.Stop()
	var panics int64
	for _, bd := range rig.engine.Breakdowns() {
		panics += bd.PanicsRecovered
	}
	if panics != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", panics)
	}
}

// --- overload shedding ------------------------------------------------

// TestOverloadShedLadder drives the ladder end to end on both engines:
// an impossible frame budget trips levels 1→3 (half-rate far clients,
// entity caps, busy rejections), near clients keep at least 80% of their
// pre-overload response rate, and restoring the budget walks the ladder
// back down with hysteresis. Level 3 protects the clients the server
// already has: only a genuinely new address is refused — an admitted
// client's retransmitted Connect and a restore-parked survivor's resume
// (by address and by name) are re-accepted.
func TestOverloadShedLadder(t *testing.T) {
	for _, threads := range []int{0, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) { testOverloadShedLadder(t, threads) })
	}
}

func testOverloadShedLadder(t *testing.T, threads int) {
	const (
		numBots = 8
		window  = 60
	)
	tap := &shedTap{}
	parked := []checkpoint.ClientRec{
		{ID: 0, Name: "by-addr", Addr: "old:0"},
		{ID: 1, Name: "by-name", Addr: "old:1"},
	}
	rig := newRigCfg(t, threads, numBots, locking.Optimized{}, func(cfg *Config) {
		cfg.Assign = RoundRobinAssign
		cfg.OverloadEntityCap = 1 // guarantee truncation at level 2
		for i := range parked {
			e, err := cfg.World.SpawnPlayer()
			if err != nil {
				t.Fatal(err)
			}
			parked[i].EntID = int32(e.ID)
		}
		cfg.Restore = &RestoreState{JoinIdx: len(parked), NextClientID: uint16(len(parked)), Clients: parked}
		cfg.Record = tap
	})
	eng := rig.engine.(interface {
		Engine
		SetFrameBudget(time.Duration)
		ShedLevel() int
	})

	// Pre-overload baseline window.
	rig.drive(20, 2*time.Millisecond) // warm-up
	pre0 := replyCounts(rig.bots)
	rig.drive(window, 2*time.Millisecond)
	pre := deltas(replyCounts(rig.bots), pre0)

	// Impossible budget: every frame is over, the ladder climbs to 3.
	eng.SetFrameBudget(time.Nanosecond)
	rig.drive(60, 2*time.Millisecond) // > trip*3 frames of ramp
	if lvl := eng.ShedLevel(); lvl != int(shedRejectNew) {
		t.Fatalf("shed level = %d after sustained overload, want %d", lvl, shedRejectNew)
	}

	// Level 3 refuses new connections with "busy" ...
	connect := func(name, addr string) (*botclient.Bot, error) {
		bc, err := rig.net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := botclient.New(botclient.Config{
			Name: name, Conn: bc, Server: transport.MemAddr("srv:0"),
			Map: rig.m, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b, b.Connect()
	}
	if _, err := connect("late", "late-joiner"); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Errorf("overloaded server accepted a new client (err=%v), want busy rejection", err)
	}
	// ... but not the clients it already has.
	if err := rig.bots[0].Connect(); err != nil {
		t.Errorf("admitted client's duplicate Connect refused at shed level 3: %v", err)
	}
	if b, err := connect("whoever", parked[0].Addr); err != nil || b.ClientID() != parked[0].ID {
		t.Errorf("parked survivor's resume by address at shed level 3: err=%v", err)
	}
	if b, err := connect(parked[1].Name, "fresh:1"); err != nil || b.ClientID() != parked[1].ID {
		t.Errorf("parked survivor's resume by name at shed level 3: err=%v", err)
	}

	// Overload window: at least half the retained clients (the near
	// half) must keep >= 80% of their pre-overload response rate.
	over0 := replyCounts(rig.bots)
	rig.drive(window, 2*time.Millisecond)
	over := deltas(replyCounts(rig.bots), over0)
	kept := 0
	for i := range rig.bots {
		if pre[i] > 0 && float64(over[i]) >= 0.8*float64(pre[i]) {
			kept++
		}
	}
	if kept < numBots/2 {
		t.Errorf("only %d/%d clients kept >=80%% of their pre-overload rate (pre=%v over=%v)",
			kept, numBots, pre, over)
	}

	// Hysteresis restore: frames comfortably under budget walk the
	// ladder back to zero (clear*3 consecutive under-budget frames).
	eng.SetFrameBudget(time.Hour)
	rig.drive(150, 2*time.Millisecond)
	if lvl := eng.ShedLevel(); lvl != int(shedNone) {
		t.Errorf("shed level = %d after load cleared, want 0", lvl)
	}
	post0 := replyCounts(rig.bots)
	rig.drive(window, 2*time.Millisecond)
	post := deltas(replyCounts(rig.bots), post0)
	restored := 0
	for i := range rig.bots {
		if pre[i] > 0 && float64(post[i]) >= 0.8*float64(pre[i]) {
			restored++
		}
	}
	if restored < numBots-1 {
		t.Errorf("only %d/%d clients recovered full rate after restore (pre=%v post=%v)",
			restored, numBots, pre, post)
	}

	eng.Stop()
	var bd metrics.Breakdown
	for _, b := range eng.Breakdowns() {
		bd.Add(&b)
	}
	if bd.RepliesShed == 0 {
		t.Error("ladder engaged but RepliesShed == 0")
	}
	if bd.EntitiesCapped == 0 {
		t.Error("ladder reached level 2 but EntitiesCapped == 0")
	}
	if bd.BusyRejects == 0 {
		t.Error("busy rejection not counted in BusyRejects")
	}
	// The ladder must also reach the record tap: up to the top and back.
	if got := tap.max.Load(); got != int32(shedRejectNew) {
		t.Errorf("recorded max shed level = %d, want %d", got, shedRejectNew)
	}
	if got := tap.last.Load(); got != int32(shedNone) {
		t.Errorf("last recorded shed level = %d, want %d", got, shedNone)
	}
}

// shedTap is a Recorder that keeps only the shed ladder's reports.
type shedTap struct{ max, last atomic.Int32 }

func (*shedTap) RecordTick(int64)                             {}
func (*shedTap) RecordMove(uint16, uint32, *protocol.MoveCmd) {}
func (*shedTap) RecordConnect(uint16, int32, int, string)     {}
func (*shedTap) RecordDisconnect(uint16, uint8)               {}
func (*shedTap) RecordMigrate(uint16, int)                    {}
func (*shedTap) RecordFrameEnd(uint64)                        {}
func (*shedTap) Items() int                                   { return 0 }
func (r *shedTap) RecordShed(level int) {
	r.last.Store(int32(level))
	if int32(level) > r.max.Load() {
		r.max.Store(int32(level))
	}
}

func deltas(after, before []int64) []int64 {
	out := make([]int64, len(after))
	for i := range after {
		out[i] = after[i] - before[i]
	}
	return out
}

// --- graceful shutdown ------------------------------------------------

// TestGracefulShutdown: while draining, new connections are refused with
// "server shutting down"; Shutdown sends every connected client a final
// Disconnected notice and empties the client table.
func TestGracefulShutdown(t *testing.T) {
	for _, threads := range []int{0, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			m := worldmap.MustGenerate(worldmap.DefaultConfig())
			w, err := game.NewWorld(game.Config{Map: m, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 1024})
			conns := make([]transport.Conn, max(threads, 1))
			for i := range conns {
				if conns[i], err = net.Listen(fmt.Sprintf("srv:%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{
				World: w, Conns: conns, Threads: threads,
				Strategy: locking.Optimized{}, MaxClients: 8,
				SelectTimeout: 2 * time.Millisecond,
			}
			var eng Engine
			var setDraining func(bool)
			if threads <= 0 {
				s, err := NewSequential(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, setDraining = s, func(v bool) { s.draining.Store(v) }
			} else {
				s, err := NewParallel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, setDraining = s, func(v bool) { s.draining.Store(v) }
			}
			eng.Start()
			defer eng.Stop()

			cc, err := net.Listen("client")
			if err != nil {
				t.Fatal(err)
			}
			sendMsg(t, cc, "srv:0", &protocol.Connect{Name: "c", FrameMs: 33, ProtocolVer: protocol.Version})
			if _, ok := recvMsg(t, cc, time.Second).(*protocol.Accept); !ok {
				t.Fatal("client not accepted")
			}

			// Draining refuses new connections.
			setDraining(true)
			lc, err := net.Listen("late")
			if err != nil {
				t.Fatal(err)
			}
			sendMsg(t, lc, "srv:0", &protocol.Connect{Name: "late", FrameMs: 33, ProtocolVer: protocol.Version})
			rej, ok := recvMsg(t, lc, time.Second).(*protocol.Reject)
			if !ok || rej.Reason != "server shutting down" {
				t.Fatalf("draining server answered %#v, want shutdown rejection", rej)
			}
			setDraining(false)

			// Shutdown notifies the connected client.
			eng.Shutdown()
			deadline := time.Now().Add(2 * time.Second)
			for {
				msg := recvMsg(t, cc, time.Until(deadline))
				if msg == nil {
					t.Fatal("no Disconnected notice before shutdown completed")
				}
				if d, ok := msg.(*protocol.Disconnected); ok {
					if d.Reason != "server shutting down" {
						t.Fatalf("Disconnected reason = %q", d.Reason)
					}
					break
				}
			}
			if n := eng.NumClients(); n != 0 {
				t.Errorf("clients after shutdown = %d, want 0", n)
			}
		})
	}
}

func sendMsg(t *testing.T, c transport.Conn, to string, msg any) {
	t.Helper()
	var wr protocol.Writer
	if err := protocol.Encode(&wr, msg); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(transport.MemAddr(to), wr.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func recvMsg(t *testing.T, c transport.Conn, timeout time.Duration) any {
	t.Helper()
	buf := make([]byte, 4*transport.MaxDatagram)
	deadline := time.Now().Add(timeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		n, _, err := c.Recv(buf, remain)
		if err != nil {
			continue
		}
		msg, err := protocol.Decode(buf[:n])
		if err != nil {
			continue
		}
		return msg
	}
}

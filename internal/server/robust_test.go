package server

import (
	"fmt"
	"strings"
	"sync"
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

// --- watchdog ---------------------------------------------------------

// TestWatchdogRecordsWedge injects a finite wedge (a seam that sleeps far
// past the deadline) into one worker, once in the request phase and once
// in the reply phase, on the sequential server and on two threads, and
// checks the record the watchdog hands to the Wedged seam in place of the
// crash: the stuck worker, the client it was serving, the phase, and a
// detection latency inside [deadline, wedge), i.e. while the worker was
// still stuck.
func TestWatchdogRecordsWedge(t *testing.T) {
	for _, tc := range []struct {
		name  string
		phase int32
	}{{"request", wpRequest}, {"reply", wpReply}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, threads := range []int{0, 2} {
				t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
					testWatchdogRecordsWedge(t, threads, tc.phase)
				})
			}
		})
	}
}

func testWatchdogRecordsWedge(t *testing.T, threads int, phase int32) {
	const (
		deadline   = 100 * time.Millisecond
		wedgeSleep = 400 * time.Millisecond
		numBots    = 4
	)
	var wedged atomic.Bool
	var wedgedClient atomic.Int32 // id+1
	var wedgedThread atomic.Int32
	wedge := func(thread int, id uint16) {
		if wedged.CompareAndSwap(false, true) {
			wedgedClient.Store(int32(id) + 1)
			wedgedThread.Store(int32(thread))
			time.Sleep(wedgeSleep)
		}
	}
	records := make(chan WedgeRecord, 8)
	rig := newRigCfg(t, threads, numBots, locking.Optimized{}, func(cfg *Config) {
		cfg.Hooks.Assign = RoundRobinAssign // split the bots across the threads
		cfg.WatchdogDeadline = deadline
		cfg.Hooks.Wedged = func(rec WedgeRecord) {
			select {
			case records <- rec:
			default:
			}
		}
		if phase == wpRequest {
			cfg.Hooks.PreExec = wedge
		} else {
			cfg.Hooks.PreReply = wedge
		}
	})
	par := rig.engine
	rig.drive(300, 2*time.Millisecond)

	var rec WedgeRecord
	select {
	case rec = <-records:
	default:
		t.Fatal("watchdog recorded no wedge")
	}
	if rec.Phase != phase {
		t.Errorf("wedge phase = %d, want %d", rec.Phase, phase)
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
	if len(records) != 0 {
		t.Errorf("%d further detections of one wedge", len(records))
	}

	// The seam replaced the crash: nobody was evicted and the engine
	// still frames.
	framesBefore := par.Frames()
	rig.drive(20, 2*time.Millisecond)
	waitCond(t, time.Second, func() bool { return par.Frames() > framesBefore },
		"engine stopped framing after the wedge")
	if n := par.NumClients(); n != numBots {
		t.Errorf("clients = %d after the wedge, want %d", n, numBots)
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

// panicSeam arms a one-shot panic in the request phase's seam,
// PreExec. victim records the client being served (id+1).
func panicSeam(cfg *Config, victim *atomic.Int32) {
	var fired atomic.Bool
	cfg.Hooks.PreExec = func(thread int, id uint16) {
		if fired.CompareAndSwap(false, true) {
			victim.Store(int32(id) + 1)
			panic("injected fault: corrupted request state")
		}
	}
}

// replyPanic is the reply-phase seam with a record of what left when.
// Its PreReply hook panics once, at the first client that is not the
// first its worker forms in a sweep, and keeps the clients formed
// before it in that sweep; its conn wrapper logs every snapshot
// datagram with the frame the server was in when it left.
type replyPanic struct {
	eng    atomic.Pointer[Parallel] // set once the engine exists
	victim *atomic.Int32

	mu         sync.Mutex
	sweepFrame map[int]uint64   // worker → frame of its current sweep
	formed     map[int][]uint16 // worker → clients formed so far in it
	before     []uint16         // formed before the panic, in its sweep
	panicFrame uint64
	sent       []sentSnapshot
}

type sentSnapshot struct {
	to            string
	frame, sentIn uint64 // the snapshot's frame, the server's frame at send
}

func armReplyPanic(cfg *Config, victim *atomic.Int32) *replyPanic {
	rp := &replyPanic{victim: victim, sweepFrame: map[int]uint64{}, formed: map[int][]uint16{}}
	cfg.Hooks.PreReply = rp.preReply
	for i, c := range cfg.Conns {
		cfg.Conns[i] = &snapshotLog{Conn: c, rp: rp}
	}
	return rp
}

func (rp *replyPanic) preReply(thread int, id uint16) {
	eng := rp.eng.Load()
	if eng == nil {
		return
	}
	frame := eng.fc.frameNumber()
	rp.mu.Lock()
	if rp.sweepFrame[thread] != frame {
		rp.sweepFrame[thread], rp.formed[thread] = frame, nil
	}
	fire := rp.victim.Load() == 0 && len(rp.formed[thread]) > 0
	if fire {
		rp.victim.Store(int32(id) + 1)
		rp.before, rp.panicFrame = rp.formed[thread], frame
	} else {
		rp.formed[thread] = append(rp.formed[thread], id)
	}
	rp.mu.Unlock()
	if fire {
		panic("injected fault: corrupted reply state")
	}
}

// snapshotLog is a server endpoint that logs the snapshots sent
// through it for replyPanic.
type snapshotLog struct {
	transport.Conn
	rp *replyPanic
}

func (c *snapshotLog) Send(to transport.Addr, data []byte) error {
	if eng := c.rp.eng.Load(); eng != nil {
		if m, err := protocol.Decode(data); err == nil {
			if snap, ok := m.(*protocol.Snapshot); ok {
				c.rp.mu.Lock()
				c.rp.sent = append(c.rp.sent, sentSnapshot{to.String(), uint64(snap.Frame), eng.fc.frameNumber()})
				c.rp.mu.Unlock()
			}
		}
	}
	return c.Conn.Send(to, data)
}

// check asserts that the clients formed before the panic in its sweep
// got that frame's snapshot, and that no snapshot left in a later frame
// than its own: the reply batch is flushed, not dropped or carried over.
func (rp *replyPanic) check(t *testing.T, bots []*botclient.Bot) {
	t.Helper()
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if len(rp.before) == 0 {
		t.Fatal("the reply panic fired with no client formed before it")
	}
	for _, s := range rp.sent {
		if s.sentIn != s.frame {
			t.Errorf("the frame-%d snapshot to %s left in frame %d", s.frame, s.to, s.sentIn)
		}
	}
	for _, id := range rp.before {
		addr := ""
		for i, b := range bots {
			if b.ClientID() == id {
				addr = fmt.Sprintf("bot:%d", i)
			}
		}
		got := false
		for _, s := range rp.sent {
			got = got || s.to == addr && s.frame == rp.panicFrame
		}
		if !got {
			t.Errorf("client %d, formed before the panic, never got its frame-%d snapshot", id, rp.panicFrame)
		}
	}
}

// TestPanicContainment injects one panic into a request handler and,
// separately, into a reply pass, on the sequential server and on two
// threads, and asserts the worker survives, exactly the client being
// served is evicted (inline in the request phase, at the barrier for the
// reply phase), and the server keeps serving everyone else. In the
// reply phase the panic hits a client formed after others in the same
// sweep: their snapshots must still leave in that frame.
func TestPanicContainment(t *testing.T) {
	for _, tc := range []struct{ threads, bots int }{{0, 3}, {2, 4}} {
		t.Run(fmt.Sprintf("threads=%d", tc.threads), func(t *testing.T) {
			for _, phase := range []string{"request", "reply"} {
				t.Run(phase, func(t *testing.T) { testPanicContainment(t, tc.threads, tc.bots, phase) })
			}
		})
	}
}

func testPanicContainment(t *testing.T, threads, numBots int, phase string) {
	var victim atomic.Int32 // id+1
	var rp *replyPanic
	rig := newRigCfg(t, threads, numBots, locking.Optimized{}, func(cfg *Config) {
		cfg.Hooks.Assign = RoundRobinAssign
		if phase == "request" {
			panicSeam(cfg, &victim)
		} else {
			rp = armReplyPanic(cfg, &victim)
		}
	})
	eng := rig.engine
	if rp != nil {
		rp.eng.Store(eng)
	}

	rig.drive(80, 2*time.Millisecond)
	waitCond(t, 2*time.Second, func() bool {
		return eng.FaultEvictions() == 1 && eng.NumClients() == numBots-1
	}, "panicking client never evicted")
	if victim.Load() == 0 {
		t.Fatal("injected panic never fired")
	}

	// The victim's bot was told, and everyone else is still served.
	before := replyCounts(rig.bots)
	rig.drive(40, 2*time.Millisecond)
	after := replyCounts(rig.bots)
	served := 0
	for i := range rig.bots {
		if int32(rig.bots[i].ClientID())+1 == victim.Load() {
			if after[i] != before[i] {
				t.Errorf("evicted client %d still got %d replies", i, after[i]-before[i])
			}
			continue
		}
		if after[i] > before[i] {
			served++
		}
	}
	if served != numBots-1 {
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
	if rp != nil {
		rp.check(t, rig.bots)
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
		cfg.Hooks.Assign = RoundRobinAssign
		cfg.Hooks.OverloadEntityCap = 1 // guarantee truncation at level 2
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
	eng := rig.engine

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
			}
			eng, err := NewParallel(cfg)
			if err != nil {
				t.Fatal(err)
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
			eng.draining.Store(true)
			lc, err := net.Listen("late")
			if err != nil {
				t.Fatal(err)
			}
			sendMsg(t, lc, "srv:0", &protocol.Connect{Name: "late", FrameMs: 33, ProtocolVer: protocol.Version})
			rej, ok := recvMsg(t, lc, time.Second).(*protocol.Reject)
			if !ok || rej.Reason != "server shutting down" {
				t.Fatalf("draining server answered %#v, want shutdown rejection", rej)
			}
			eng.draining.Store(false)

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

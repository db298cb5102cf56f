package match

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/transport"
)

// buildFleet admits idle+active matches into a manager. Active matches
// get their own MemConn endpoint and a bot-visible address; idle ones
// just tick. Returns the active matches' endpoints' network.
func buildFleet(tb testing.TB, mgr *Manager, idle, active int) *transport.Network {
	tb.Helper()
	st := smallStatic(tb)
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	for i := 0; i < idle; i++ {
		conn, err := net.Listen(fmt.Sprintf("idle:%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := mgr.Add(fmt.Sprintf("idle-%d", i), newEngine(tb, st, conn, mgr.Shared())); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < active; i++ {
		conn, err := net.Listen(fmt.Sprintf("act:%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := mgr.Add(fmt.Sprintf("act-%d", i), newEngine(tb, st, conn, mgr.Shared())); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// connectBots joins n bots to each active match, directly against the
// match's endpoint (lobby routing has its own tests). It pumps the
// scheduler manually while handshaking, so it works whether or not the
// manager's workers are running.
func connectBots(tb testing.TB, mgr *Manager, net *transport.Network, active, botsPer int) []*botclient.Bot {
	tb.Helper()
	m := smallMap(tb)
	stopPump := make(chan struct{})
	var pumpWg sync.WaitGroup
	pumpWg.Add(1)
	go func() {
		defer pumpWg.Done()
		for {
			select {
			case <-stopPump:
				return
			default:
			}
			if !mgr.dispatchOne() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	defer func() {
		close(stopPump)
		pumpWg.Wait()
	}()
	var bots []*botclient.Bot
	for i := 0; i < active; i++ {
		for j := 0; j < botsPer; j++ {
			bc, err := net.Listen(fmt.Sprintf("bot:%d:%d", i, j))
			if err != nil {
				tb.Fatal(err)
			}
			bot, err := botclient.New(botclient.Config{
				Name:   fmt.Sprintf("b%d-%d", i, j),
				Conn:   bc,
				Server: transport.MemAddr(fmt.Sprintf("act:%d", i)),
				Map:    m,
				Seed:   int64(i*100 + j),
			})
			if err != nil {
				tb.Fatal(err)
			}
			if err := bot.Connect(); err != nil {
				tb.Fatalf("bot %d:%d connect: %v", i, j, err)
			}
			bots = append(bots, bot)
		}
	}
	return bots
}

// BenchmarkMatchManager measures the scheduler's per-frame dispatch
// cost with the headline fleet shape — 1000 idle + 8 active matches —
// by driving dispatchOne directly with always-due deadlines. The -race
// free run in `make instancing` gates allocs/op at 0 via
// TestSchedulerDispatchZeroAllocs; this reports the numbers.
func BenchmarkMatchManager(b *testing.B) {
	mgr := NewManager(Config{Workers: 1, ActiveInterval: time.Nanosecond, IdleInterval: time.Nanosecond})
	net := buildFleet(b, mgr, 1000, 8)
	bots := connectBots(b, mgr, net, 8, 2)
	// Poke admission through: every match steps at least once so all
	// lazy growth (heap capacity, scratch sets, reply buffers) happens
	// before measurement.
	for i := 0; i < 3000; i++ {
		mgr.dispatchOne()
	}
	for _, bot := range bots {
		bot.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.dispatchOne()
	}
	b.StopTimer()
	mgr.Stop()
}

// TestSchedulerDispatchZeroAllocs is the static fleet's allocation
// gate: once every match has stepped once, the pop→step→requeue path —
// including an idle match's scratch borrow/return round trip — must not
// allocate.
func TestSchedulerDispatchZeroAllocs(t *testing.T) {
	mgr := NewManager(Config{Workers: 1, ActiveInterval: time.Nanosecond, IdleInterval: time.Nanosecond})
	net := buildFleet(t, mgr, 64, 1)
	bots := connectBots(t, mgr, net, 1, 2)
	for i := 0; i < 1000; i++ {
		mgr.dispatchOne()
	}
	for _, bot := range bots {
		bot.Step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		mgr.dispatchOne()
	})
	mgr.Stop()
	if allocs != 0 {
		t.Errorf("scheduler dispatch allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestMatchManagerTailGate is the CI latency gate: 1000 idle + 8 active
// matches on the real worker pool, with live bot traffic, must keep the
// active matches' p99 frame step under a generous bound (solo steps are
// tens of microseconds; the bound catches interference regressions, not
// scheduler jitter on a loaded CI box) and must not need anywhere near
// one scratch set per match.
func TestMatchManagerTailGate(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet gate skipped in -short")
	}
	mgr := NewManager(Config{ActiveInterval: 10 * time.Millisecond, IdleInterval: 100 * time.Millisecond})
	net := buildFleet(t, mgr, 1000, 8)
	mgr.Start()
	bots := connectBots(t, mgr, net, 8, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, bot := range bots {
		wg.Add(1)
		go func(b *botclient.Bot) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b.Step()
				time.Sleep(10 * time.Millisecond)
			}
		}(bot)
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
	mgr.Stop()

	if ev := mgr.Evictions(); ev != 0 {
		t.Fatalf("evictions = %d, want 0", ev)
	}
	var worstP99 float64
	var activeFrames uint64
	for _, st := range mgr.Stats() {
		if st.Clients == 0 {
			continue
		}
		activeFrames += st.Frames
		if st.StepP99Ms > worstP99 {
			worstP99 = st.StepP99Ms
		}
	}
	if activeFrames == 0 {
		t.Fatal("active matches never stepped")
	}
	if worstP99 > 30 {
		t.Errorf("active-match step p99 = %.2fms, want < 30ms", worstP99)
	}
	if made := mgr.Shared().Made(); made > 200 {
		t.Errorf("scratch sets built = %d for 1008 matches; idle matches are hoarding buffers", made)
	}
}

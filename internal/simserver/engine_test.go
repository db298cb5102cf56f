package simserver

import (
	"testing"

	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

// shortCfg returns a quick configuration for unit tests (2 virtual
// seconds is enough for dozens of frames).
func shortCfg(players, threads int) Config {
	return Config{
		Players:   players,
		Threads:   threads,
		DurationS: 2,
		Seed:      5,
	}
}

func TestSequentialRunBasics(t *testing.T) {
	res, err := Run(shortCfg(16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 || res.Requests == 0 {
		t.Fatalf("frames=%d requests=%d", res.Frames, res.Requests)
	}
	// 16 players at ~30 req/s for 2s ≈ 960 requests.
	if res.Requests < 800 || res.Requests > 1000 {
		t.Errorf("requests = %d, want ~960", res.Requests)
	}
	if res.Resp.Replies == 0 {
		t.Fatal("no replies")
	}
	bd := res.Avg
	if bd.Ns[metrics.CompExec] == 0 || bd.Ns[metrics.CompReply] == 0 || bd.Ns[metrics.CompWorld] == 0 {
		t.Errorf("breakdown missing components: %s", bd.String())
	}
	if bd.Ns[metrics.CompLock] != 0 {
		t.Errorf("sequential run charged lock time: %s", bd.String())
	}
	if res.Strategy != "none" {
		t.Errorf("strategy = %q", res.Strategy)
	}
	// Response time must be sane: at low load ≈ network + sub-frame
	// processing, well under 100ms.
	if ms := res.ResponseTimeMs(); ms <= 0 || ms > 100 {
		t.Errorf("response time = %v ms", ms)
	}
}

func TestParallelRunHasLockAndWaitTime(t *testing.T) {
	res, err := Run(shortCfg(32, 4))
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Avg
	if bd.Ns[metrics.CompLock] == 0 {
		t.Error("no lock time with conservative locking and 4 threads")
	}
	if bd.Ns[metrics.CompInterWait]+bd.Ns[metrics.CompIntraWait] == 0 {
		t.Error("no wait time at barriers")
	}
	if bd.LeafLockNs == 0 {
		t.Error("no leaf lock attribution")
	}
	if res.Locks.LeafLockOps == 0 || res.Locks.Moves == 0 {
		t.Errorf("lock aggregate empty: %+v", res.Locks)
	}
	if res.Locks.DistinctLeaves > res.Locks.LeafLockOps {
		t.Error("distinct leaves exceed lock ops")
	}
	if len(res.FrameLog.Frames) == 0 {
		t.Error("frame log empty")
	}
	if res.PerThread[0].Total() == 0 {
		t.Error("thread 0 breakdown empty")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(shortCfg(24, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortCfg(24, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Frames != b.Frames || a.Requests != b.Requests ||
		a.Resp.Replies != b.Resp.Replies {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.PerThread {
		if a.PerThread[i] != b.PerThread[i] {
			t.Fatalf("thread %d breakdown diverged", i)
		}
	}
	if a.ResponseTimeMs() != b.ResponseTimeMs() {
		t.Error("response times diverged")
	}
}

func TestOptimizedLockingReducesLockShare(t *testing.T) {
	base := shortCfg(96, 4)
	base.DurationS = 3
	cons, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	opt := base
	opt.Strategy = locking.Optimized{}
	optRes, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	consLock := cons.Avg.Percent(metrics.CompLock)
	optLock := optRes.Avg.Percent(metrics.CompLock)
	if optLock >= consLock {
		t.Errorf("optimized lock share %.1f%% >= conservative %.1f%%", optLock, consLock)
	}
}

func TestMoreThreadsMoreThroughputUnderLoad(t *testing.T) {
	mk := func(threads int) *Result {
		cfg := shortCfg(160, threads)
		cfg.DurationS = 3
		cfg.Strategy = locking.Optimized{}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := mk(0)
	four := mk(4)
	// At 160 players the sequential server is saturated; four threads
	// must serve strictly more replies.
	if four.Resp.Replies <= seq.Resp.Replies {
		t.Errorf("4T replies %d <= sequential %d", four.Resp.Replies, seq.Resp.Replies)
	}
	if four.ResponseTimeMs() >= seq.ResponseTimeMs() {
		t.Errorf("4T response %.1fms >= sequential %.1fms",
			four.ResponseTimeMs(), seq.ResponseTimeMs())
	}
}

func TestBreakdownComponentsSumToDuration(t *testing.T) {
	res, err := Run(shortCfg(32, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Each thread's total accounted time must approximate the virtual
	// duration (threads start at 0 and run to ~end; slack for the final
	// partial frame and select quantization).
	for i, bd := range res.PerThread {
		total := float64(bd.Total()) / 1e9
		if total < res.DurationS*0.9 || total > res.DurationS*1.2 {
			t.Errorf("thread %d accounts %.2fs of %.0fs", i, total, res.DurationS)
		}
	}
}

func TestConfigValidationAndDefaults(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := Run(Config{Players: 4, Threads: -1, DurationS: 0.5}); err == nil {
		t.Error("negative thread count accepted")
	}
	// The zero thread count is the sequential server, as in the live
	// engine's server.Config.
	res, err := Run(Config{Players: 4, DurationS: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads != 0 || res.Strategy != "none" || len(res.PerThread) != 1 || res.NumLeaves != 16 {
		t.Errorf("defaults wrong: %+v", res)
	}
	if res.Avg.Ns[metrics.CompLock] != 0 {
		t.Errorf("sequential run charged %d ns of locking", res.Avg.Ns[metrics.CompLock])
	}
}

func TestAreanodeDepthSweep(t *testing.T) {
	for _, depth := range []int{1, 3, 5} {
		cfg := shortCfg(16, 2)
		cfg.AreanodeDepth = depth
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if res.NumLeaves != 1<<depth {
			t.Errorf("depth %d: leaves = %d", depth, res.NumLeaves)
		}
		if res.Locks.AvgDistinctLeavesPerRequest() <= 0 {
			t.Errorf("depth %d: no distinct leaf stat", depth)
		}
	}
}

func TestSMTModelMakes8ThreadsBarelyBetterThan4(t *testing.T) {
	mk := func(threads int) *Result {
		cfg := shortCfg(128, threads)
		cfg.DurationS = 3
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	four := mk(4)
	eight := mk(8)
	// The paper: "using eight threads does not improve performance any
	// further". Allow 8T to be modestly better or slightly worse, but it
	// must not approach 2x.
	ratio := float64(eight.Resp.Replies) / float64(four.Resp.Replies)
	if ratio > 1.35 {
		t.Errorf("8T/4T reply ratio = %.2f; SMT model too optimistic", ratio)
	}
	if ratio < 0.6 {
		t.Errorf("8T/4T reply ratio = %.2f; SMT model too pessimistic", ratio)
	}
}

func TestDooredMapRunsOnSimServer(t *testing.T) {
	mc := worldmap.DefaultConfig()
	mc.Rows, mc.Cols = 4, 4
	mc.DoorProb = 1.0
	mc.Seed = 6
	m, err := worldmap.Generate(mc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Map: m, Players: 16, Threads: 2, DurationS: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp.Replies == 0 {
		t.Fatal("no replies on doored map")
	}
	// Doors animate in the world phase: the percentile view must also be
	// populated (Record path).
	if res.Resp.Hist.N() == 0 {
		t.Error("latency histogram empty")
	}
	if res.Resp.P95Ms() <= 0 {
		t.Error("p95 not computed")
	}
}

// TestNaiveConsideredMatchesBuildSnapshot: the paper server's reply arm
// prices each client's naive scan from the frame's visibility index, so
// the count it charges must be the Considered of the scan itself, for
// every viewer, across frames of movement, combat and item pickups.
func TestNaiveConsideredMatchesBuildSnapshot(t *testing.T) {
	w, err := game.NewWorld(game.Config{Map: worldmap.MustGenerate(worldmap.DefaultConfig()), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	players := make([]*entity.Entity, 24)
	for i := range players {
		if players[i], err = w.SpawnPlayer(); err != nil {
			t.Fatal(err)
		}
	}
	var vi game.VisIndex
	for frame := 0; frame < 60; frame++ {
		for i, p := range players {
			cmd := protocol.MoveCmd{Forward: 320, Msec: 33,
				Yaw: protocol.AngleToWire(float64((frame*29 + i*83) % 360))}
			if (frame+i)%5 == 0 {
				cmd.Buttons = protocol.BtnFire
			}
			w.ExecuteMove(p, &cmd, &game.LockContext{})
		}
		w.RunWorldFrame(0.033)
		vi.Build(w)
		for i, p := range players {
			if !p.Active {
				continue
			}
			if _, work := w.BuildSnapshot(p, nil); naiveConsidered(&vi, p) != work.Considered {
				t.Fatalf("frame %d player %d: priced %d considered, the scan considers %d",
					frame, i, naiveConsidered(&vi, p), work.Considered)
			}
		}
	}
}

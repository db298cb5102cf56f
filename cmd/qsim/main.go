// qsim runs one simulated-server experiment and prints its measurements.
package main

import (
	"flag"
	"fmt"
	"os"

	"qserve/internal/balance"
	"qserve/internal/checkpoint"
	"qserve/internal/experiments"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/simserver"
	"qserve/internal/worldmap"
)

func main() {
	players := flag.Int("players", 128, "number of automatic players")
	threads := flag.Int("threads", 4, "server threads (0 = the sequential server: one thread, no region locks)")
	lockMode := flag.String("locking", "conservative", "locking strategy: conservative or optimized")
	dur := flag.Float64("dur", 10, "virtual seconds to simulate")
	depth := flag.Int("depth", 0, "areanode tree depth (0 = default 4)")
	seed := flag.Int64("seed", 1, "experiment seed")
	rows := flag.Int("rows", 0, "map room rows (0 = default)")
	cols := flag.Int("cols", 0, "map room cols (0 = default)")
	assign := flag.String("assign", "block", "player assignment: block, roundrobin, region")
	batch := flag.Int64("batch", 0, "request batching delay in microseconds (0 = off)")
	trace := flag.Int("trace", 0, "render an execution timeline of the first N frames")
	bal := flag.Bool("balance", false, "enable dynamic client->thread load balancing at the frame barrier")
	steal := flag.Bool("steal", false, "conflict-aware work-stealing request execution")
	cluster := flag.Int("cluster", 0, "pin the first N players to room 0 (skewed workload)")
	ckptDir := flag.String("checkpoint", "", "capture durable checkpoints into this directory during the run")
	ckptInterval := flag.Uint64("checkpoint-interval", checkpoint.DefaultInterval, "frames between checkpoints")
	ckptDelta := flag.Int("checkpoint-delta", checkpoint.DefaultDeltaEvery, "delta checkpoints between full images")
	flag.Parse()
	strat, err := locking.ParseStrategy(*lockMode)
	if err != nil {
		usageError(err)
	}
	policy, err := simserver.ParseAssign(*assign)
	if err != nil {
		usageError(err)
	}

	cfg := simserver.Config{
		Players:       *players,
		Threads:       *threads,
		DurationS:     *dur,
		AreanodeDepth: *depth,
		Seed:          *seed,
		Strategy:      strat,
		Assign:        policy,
	}
	if *rows > 0 && *cols > 0 {
		mc := worldmap.DefaultConfig()
		mc.Rows, mc.Cols = *rows, *cols
		mc.Seed = *seed + 1
		cfg.MapConfig = mc
	}
	cfg.BatchDelayNs = *batch * 1000
	cfg.TraceFrames = *trace
	cfg.Cluster = *cluster
	if *bal {
		cfg.Balance = balance.Policy{Enabled: true}
	}
	cfg.Stealing = *steal
	var ckw *checkpoint.Writer
	if *ckptDir != "" {
		// Resolve the map up front (the same way simserver.Run would) so
		// the writer can embed it in every checkpoint file.
		if cfg.Map == nil {
			mc := cfg.MapConfig
			if mc.Rows == 0 {
				mc = worldmap.DefaultConfig()
				mc.Seed = cfg.Seed + 1
			}
			cfg.Map = worldmap.MustGenerate(mc)
		}
		if ckw, err = checkpoint.NewWriter(checkpoint.Config{
			Dir:        *ckptDir,
			Interval:   *ckptInterval,
			DeltaEvery: *ckptDelta,
			WorldSeed:  cfg.Seed,
			Map:        cfg.Map,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Checkpoint = ckw
	}
	res, err := simserver.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("players=%d threads=%d strategy=%s leaves=%d\n",
		res.Players, res.Threads, res.Strategy, res.NumLeaves)
	fmt.Printf("frames=%d requests=%d replies=%d rate=%.1f/s resp=%.1fms\n",
		res.Frames, res.Requests, res.Resp.Replies, res.ResponseRate(), res.ResponseTimeMs())
	bd := res.Avg
	for c := metrics.Component(0); c < metrics.NumComponents; c++ {
		fmt.Printf("  %-11s %6.1f%%  (%s)\n", c.String(), bd.Percent(c), metrics.Dur(bd.Ns[c]))
	}
	fmt.Printf("  reply volume: %d datagrams, %d bytes (%.1f B/reply), %d buffer growths\n",
		bd.ReplyDatagrams, bd.ReplyBytes, bd.BytesPerReply(), bd.ReplyAllocs)
	fmt.Printf("  leaf-lock %.1f%% of lock, parent-lock %.1f%%\n",
		pct(bd.LeafLockNs, bd.Ns[metrics.CompLock]), pct(bd.ParentLockNs, bd.Ns[metrics.CompLock]))
	fmt.Printf("  req/thread/frame=%.2f sharedleaf=%.2f touched=%.2f lockops/leaf/frame=%.2f\n",
		res.FrameLog.RequestsPerThreadPerFrame(), res.FrameLog.SharedLeafFraction(),
		res.FrameLog.TouchedLeafFraction(), res.FrameLog.LockOpsPerLeafPerFrame())
	parts := 0.0
	for _, f := range res.FrameLog.Frames {
		parts += float64(f.Participants)
	}
	if n := len(res.FrameLog.Frames); n > 0 {
		parts /= float64(n)
	}
	fmt.Printf("  avg participants/frame=%.2f\n", parts)
	im, sd := res.FrameLog.ImbalanceStats()
	fmt.Printf("  imbalance mean=%.2f sd=%.2f distinctleaves/req=%.2f relock=%.2f\n",
		im, sd, res.Locks.AvgDistinctLeavesPerRequest(), res.Locks.RelockFraction())
	fmt.Printf("  exec load max/mean=%.2f migrations=%d\n",
		res.FrameLog.ExecLoadRatio(), res.Migrations)
	if ckw != nil {
		if err := ckw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// Durability counters are captured by the barrier master alone, so sum
	// across threads rather than using the per-thread average.
	var dsum metrics.Breakdown
	for i := range res.PerThread {
		dsum.Add(&res.PerThread[i])
	}
	if dsum.Checkpoints > 0 || dsum.RecoveryNs > 0 {
		per := int64(0)
		if dsum.Checkpoints > 0 {
			per = dsum.CheckpointNs / dsum.Checkpoints
		}
		fmt.Printf("  durability: %d checkpoints (%s capture, %s each), %dKB written, delta ratio %.2f",
			dsum.Checkpoints, metrics.Dur(dsum.CheckpointNs), metrics.Dur(per),
			dsum.CheckpointBytes/1024, dsum.DeltaRatio())
		if dsum.RecoveryNs > 0 {
			fmt.Printf(", recovery %s", metrics.Dur(dsum.RecoveryNs))
		}
		fmt.Println()
	}
	if *trace > 0 {
		fmt.Println()
		fmt.Print(experiments.RenderTimeline(res.Trace, len(res.PerThread), 96))
	}
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// usageError reports a bad flag value the way the flag package does:
// the message, then exit status 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "qsim:", err)
	os.Exit(2)
}

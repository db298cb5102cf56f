// Package qserve_test hosts the paper-reproduction benchmark harness:
// one testing.B benchmark per table and figure of the IPPS 2004 paper's
// evaluation. Each benchmark runs the corresponding experiment on the
// simulated machine with a short virtual duration and reports the
// headline quantities as custom metrics (b.ReportMetric), so
//
//	go test -bench=. -benchmem
//
// regenerates the full result set in one command. cmd/qbench produces
// the long-form tables (and paper-length two-minute runs with -dur 120).
//
// Ownership rule: this file and cmd/qbench own the virtual-time paper
// figures and the 0 allocs/op micro-gates (`make allocgate`); everything
// measured on a live engine — throughput, latency, CPU per reply over a
// real transport — belongs to bench/qload. Do not add a wall-clock
// benchmark of a running server here.
package qserve_test

import (
	"fmt"
	"testing"

	"qserve/internal/entity"
	"qserve/internal/experiments"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/simserver"
	"qserve/internal/worldmap"
)

// benchDuration is the virtual seconds simulated per configuration per
// iteration. The statistics are stationary, so short runs preserve the
// paper's shapes; raise it for tighter numbers.
const benchDuration = 2.0

func benchOpts() experiments.Options {
	return experiments.Options{DurationS: benchDuration, Seed: 1}
}

func benchCfg(players, threads int, sequential bool, strat locking.Strategy) simserver.Config {
	return simserver.Config{
		MapConfig:  experiments.PaperMapConfig(1),
		Players:    players,
		Threads:    threads,
		Sequential: sequential,
		Strategy:   strat,
		DurationS:  benchDuration,
		Seed:       1,
	}
}

func mustRun(b *testing.B, cfg simserver.Config) *simserver.Result {
	b.Helper()
	res, err := simserver.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1MachineConfig reports the simulated testbed (Table 1).
func BenchmarkTable1MachineConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1SequentialFrame measures the sequential frame structure
// (Figure 1): stage shares of the S→P→Rx/E→T/Tx loop.
func BenchmarkFig1SequentialFrame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mustRun(b, benchCfg(64, 1, true, nil))
		b.ReportMetric(res.Avg.Percent(metrics.CompReply), "reply_%")
		b.ReportMetric(res.Avg.Percent(metrics.CompWorld), "world_%")
	}
}

// BenchmarkFig2AreanodeTree measures areanode construction and linking
// (Figure 2) through a populated run on the default 31-node tree.
func BenchmarkFig2AreanodeTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mustRun(b, benchCfg(32, 1, true, nil))
		if res.NumLeaves != 16 {
			b.Fatalf("leaves = %d", res.NumLeaves)
		}
	}
}

// BenchmarkFig3FrameOrchestration measures the parallel frame protocol
// (Figure 3): average participants per frame at 4 threads.
func BenchmarkFig3FrameOrchestration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mustRun(b, benchCfg(96, 4, false, locking.Conservative{}))
		parts := 0
		for _, f := range res.FrameLog.Frames {
			parts += f.Participants
		}
		if n := len(res.FrameLog.Frames); n > 0 {
			b.ReportMetric(float64(parts)/float64(n), "participants/frame")
		}
	}
}

// BenchmarkFig4SingleThreadOverhead reproduces Figure 4: the overhead of
// the single-thread parallel server over the sequential baseline.
func BenchmarkFig4SingleThreadOverhead(b *testing.B) {
	for _, players := range []int{64, 96, 128} {
		b.Run(fmt.Sprintf("players=%d", players), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq := mustRun(b, benchCfg(players, 1, true, nil))
				par := mustRun(b, benchCfg(players, 1, false, locking.Conservative{}))
				b.ReportMetric(experiments.RequestOverhead(seq, par), "overhead_%")
				b.ReportMetric(seq.ResponseRate(), "seq_rate")
				b.ReportMetric(par.ResponseRate(), "par_rate")
			}
		})
	}
}

// BenchmarkFig5MultiThread reproduces Figure 5: response rate, response
// time, and lock/wait shares per thread count with conservative locking.
func BenchmarkFig5MultiThread(b *testing.B) {
	for _, threads := range []int{2, 4, 8} {
		for _, players := range []int{64, 128, 160} {
			b.Run(fmt.Sprintf("threads=%d/players=%d", threads, players), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := mustRun(b, benchCfg(players, threads, false, locking.Conservative{}))
					b.ReportMetric(res.ResponseRate(), "rate")
					b.ReportMetric(res.ResponseTimeMs(), "resp_ms")
					b.ReportMetric(res.Avg.Percent(metrics.CompLock), "lock_%")
					b.ReportMetric(res.Avg.Percent(metrics.CompIntraWait)+
						res.Avg.Percent(metrics.CompInterWait), "wait_%")
				}
			})
		}
	}
}

// BenchmarkFig6OptimizedLocking reproduces Figure 6: the same sweep with
// expanded/directional locking.
func BenchmarkFig6OptimizedLocking(b *testing.B) {
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustRun(b, benchCfg(160, threads, false, locking.Optimized{}))
				b.ReportMetric(res.ResponseRate(), "rate")
				b.ReportMetric(res.ResponseTimeMs(), "resp_ms")
				b.ReportMetric(res.Avg.Percent(metrics.CompLock), "lock_%")
			}
		})
	}
}

// BenchmarkFig7aLeafParentSplit reproduces Figure 7(a): the share of
// lock time due to leaf versus parent areanode locking.
func BenchmarkFig7aLeafParentSplit(b *testing.B) {
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustRun(b, benchCfg(128, threads, false, locking.Conservative{}))
				total := res.Avg.LeafLockNs + res.Avg.ParentLockNs
				if total > 0 {
					b.ReportMetric(100*float64(res.Avg.LeafLockNs)/float64(total), "leaf_%")
				}
			}
		})
	}
}

// BenchmarkFig7bTreeSizeSweep reproduces Figure 7(b): distinct leaves
// locked per request as the areanode count grows from 3 to 63.
func BenchmarkFig7bTreeSizeSweep(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("areanodes=%d", 1<<(depth+1)-1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(128, 4, false, locking.Optimized{})
				cfg.AreanodeDepth = depth
				res := mustRun(b, cfg)
				distinct := res.Locks.AvgDistinctLeavesPerRequest()
				b.ReportMetric(100*distinct/float64(res.NumLeaves), "world_locked_%")
				b.ReportMetric(100*res.Locks.RelockFraction(), "relocked_%")
			}
		})
	}
}

// BenchmarkFig7cLeafSharing reproduces Figure 7(c): the fraction of
// leaves locked by two or more threads in the same frame.
func BenchmarkFig7cLeafSharing(b *testing.B) {
	for _, players := range []int{64, 128, 160} {
		b.Run(fmt.Sprintf("players=%d", players), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustRun(b, benchCfg(players, 4, false, locking.Conservative{}))
				b.ReportMetric(100*res.FrameLog.SharedLeafFraction(), "shared_%")
			}
		})
	}
}

// BenchmarkSec52Imbalance reproduces the §4.2/§5.2 balance statistics:
// requests per thread per frame and the per-frame spread.
func BenchmarkSec52Imbalance(b *testing.B) {
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustRun(b, benchCfg(128, threads, false, locking.Conservative{}))
				mean, sd := res.FrameLog.ImbalanceStats()
				b.ReportMetric(res.FrameLog.RequestsPerThreadPerFrame(), "req/thread/frame")
				b.ReportMetric(mean, "spread_mean")
				b.ReportMetric(sd, "spread_sd")
			}
		})
	}
}

// BenchmarkSec51Coverage reproduces §5.1's map-activity measurements.
func BenchmarkSec51Coverage(b *testing.B) {
	for _, players := range []int{64, 128, 160} {
		b.Run(fmt.Sprintf("players=%d", players), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustRun(b, benchCfg(players, 2, false, locking.Conservative{}))
				b.ReportMetric(100*res.FrameLog.TouchedLeafFraction(), "touched_%")
				b.ReportMetric(res.FrameLog.LockOpsPerLeafPerFrame(), "lockops/leaf/frame")
			}
		})
	}
}

// BenchmarkHeadlineSupportedPlayers measures the paper's top-line claim:
// the 8-thread optimized server versus the sequential baseline at the
// sequential saturation point.
func BenchmarkHeadlineSupportedPlayers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seq := mustRun(b, benchCfg(128, 1, true, nil))
		opt := mustRun(b, benchCfg(160, 8, false, locking.Optimized{}))
		b.ReportMetric(seq.ResponseTimeMs(), "seq128_resp_ms")
		b.ReportMetric(opt.ResponseTimeMs(), "opt8T160_resp_ms")
		b.ReportMetric(float64(opt.Resp.Replies)/float64(opt.Requests)*100, "opt8T160_replied_%")
	}
}

// BenchmarkAblationAssignment measures the paper's §5.1 future-work
// proposal: dynamic region-based player assignment versus static block
// assignment, under optimized locking.
func BenchmarkAblationAssignment(b *testing.B) {
	for _, policy := range []simserver.AssignPolicy{simserver.AssignBlock, simserver.AssignRegion} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(144, 4, false, locking.Optimized{})
				cfg.Assign = policy
				res := mustRun(b, cfg)
				b.ReportMetric(100*res.FrameLog.SharedLeafFraction(), "shared_%")
				b.ReportMetric(res.ResponseTimeMs(), "resp_ms")
			}
		})
	}
}

// BenchmarkAblationBatching measures the §5.2 future-work proposal:
// master-side request batching.
func BenchmarkAblationBatching(b *testing.B) {
	for _, batchUs := range []int64{0, 500, 2000} {
		b.Run(fmt.Sprintf("batch=%dus", batchUs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCfg(128, 4, false, locking.Conservative{})
				cfg.BatchDelayNs = batchUs * 1000
				res := mustRun(b, cfg)
				b.ReportMetric(res.FrameLog.RequestsPerThreadPerFrame(), "req/thread/frame")
				b.ReportMetric(res.ResponseTimeMs(), "resp_ms")
			}
		})
	}
}

// BenchmarkReplyPhaseAllocs measures the reply phase's per-round heap
// traffic: forming and encoding one snapshot for each of 16 players in a
// warmed-up world. "naive" is the pre-pooling path (fresh entity list,
// delta list, and encoder per client, baseline replaced wholesale);
// "pooled" is the live engine's ReplyScratch/Baseline pipeline. Run with
// -benchmem; the pooled path must report ~0 allocs/op in steady state
// while producing byte-identical datagrams (see
// internal/server.TestGoldenReplyStream).
func BenchmarkReplyPhaseAllocs(b *testing.B) {
	const numPlayers = 16
	setup := func(b *testing.B) (*game.World, []*entity.Entity) {
		b.Helper()
		m := worldmap.MustGenerate(worldmap.DefaultConfig())
		w, err := game.NewWorld(game.Config{Map: m, Seed: 77})
		if err != nil {
			b.Fatal(err)
		}
		players := make([]*entity.Entity, numPlayers)
		for i := range players {
			if players[i], err = w.SpawnPlayer(); err != nil {
				b.Fatal(err)
			}
		}
		// Scatter the players with some movement so views differ and the
		// world holds projectiles/items, as in a live frame.
		for f := 0; f < 30; f++ {
			for i, e := range players {
				cmd := protocol.MoveCmd{
					Forward: 320, Msec: 33,
					Yaw: protocol.AngleToWire(float64((f*37 + i*91) % 360)),
				}
				if (f+i)%7 == 0 {
					cmd.Buttons = protocol.BtnFire
				}
				w.ExecuteMove(e, &cmd, &game.LockContext{})
			}
			w.RunWorldFrame(0.033)
		}
		return w, players
	}
	events := []protocol.GameEvent{{Kind: 1, Actor: 3, Subject: 4}}

	b.Run("naive", func(b *testing.B) {
		w, players := setup(b)
		baselines := make([][]protocol.EntityState, numPlayers)
		baseTags := make([]uint32, numPlayers)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			frame := uint32(n + 1)
			for i, e := range players {
				data, base, tag := server.ReferenceFormSnapshot(w, e, baselines[i], baseTags[i],
					frame, frame, frame*33, events, events)
				baselines[i], baseTags[i] = base, tag
				if len(data) == 0 {
					b.Fatal("empty datagram")
				}
			}
		}
	})

	b.Run("pooled", func(b *testing.B) {
		w, players := setup(b)
		var scratch server.ReplyScratch
		baselines := make([]server.Baseline, numPlayers)
		// Warm-up: the scratch and baselines circulate buffers that each
		// grow to the high-water mark once; steady state is what the
		// benchmark (and the CI allocation gate) measures.
		for round := 0; round < 8; round++ {
			for i, e := range players {
				scratch.FormSnapshot(w, nil, e, &baselines[i], 1, 1, 1, events, events, 0)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			frame := uint32(n + 1)
			for i, e := range players {
				data, _ := scratch.FormSnapshot(w, nil, e, &baselines[i],
					frame, frame, frame*33, events, events, 0)
				if len(data) == 0 {
					b.Fatal("empty datagram")
				}
			}
		}
	})

	// The indexed path: one shared visibility-index build per round plus
	// 16 merge-based snapshots. Must also hold 0 allocs/op in steady
	// state (the cache-build CI gate greps this sub-benchmark).
	b.Run("indexed", func(b *testing.B) {
		w, players := setup(b)
		var scratch server.ReplyScratch
		var vis game.VisIndex
		baselines := make([]server.Baseline, numPlayers)
		for round := 0; round < 8; round++ {
			vis.Build(w)
			for i, e := range players {
				scratch.FormSnapshot(w, &vis, e, &baselines[i], 1, 1, 1, events, events, 0)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			frame := uint32(n + 1)
			vis.Build(w)
			for i, e := range players {
				data, _ := scratch.FormSnapshot(w, &vis, e, &baselines[i],
					frame, frame, frame*33, events, events, 0)
				if len(data) == 0 {
					b.Fatal("empty datagram")
				}
			}
		}
	})
}

// snapshotWorld builds a warmed-up world with the given player count on
// the given map, scattered by scripted movement, for the snapshot
// benchmarks below.
func snapshotWorld(b *testing.B, mc worldmap.Config, players int) (*game.World, []*entity.Entity) {
	b.Helper()
	m := worldmap.MustGenerate(mc)
	w, err := game.NewWorld(game.Config{Map: m, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	ents := make([]*entity.Entity, players)
	for i := range ents {
		if ents[i], err = w.SpawnPlayer(); err != nil {
			b.Fatal(err)
		}
	}
	for f := 0; f < 30; f++ {
		for i, e := range ents {
			cmd := protocol.MoveCmd{
				Forward: 320, Msec: 33,
				Yaw: protocol.AngleToWire(float64((f*37 + i*91) % 360)),
			}
			w.ExecuteMove(e, &cmd, &game.LockContext{})
		}
		w.RunWorldFrame(0.033)
	}
	return w, ents
}

// highVisMapConfig raises the default map's connectivity and visibility
// depth: more doors and deeper portal vision inflate every client's
// visible set, the regime where the paper observes reply costs climbing
// ("maps exhibiting higher visibility incur higher reply processing
// times").
func highVisMapConfig() worldmap.Config {
	mc := worldmap.DefaultConfig()
	mc.Name = "gen-dm36-open"
	mc.ExtraDoorProb = 0.9
	mc.VisibilityDepth = 4
	return mc
}

// BenchmarkBuildSnapshot measures per-frame snapshot assembly for all
// clients — the naive per-client table scan versus the shared visibility
// index (one build + per-client merges) — across player counts and map
// visibility levels. time/op is one full frame's assembly work.
func BenchmarkBuildSnapshot(b *testing.B) {
	maps := []struct {
		name string
		mc   worldmap.Config
	}{
		{"lowvis", worldmap.DefaultConfig()},
		{"highvis", highVisMapConfig()},
	}
	for _, mp := range maps {
		for _, players := range []int{64, 96, 144} {
			w, ents := snapshotWorld(b, mp.mc, players)
			states := make([]protocol.EntityState, 0, 1024)

			b.Run(fmt.Sprintf("%s/players=%d/naive", mp.name, players), func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					for _, e := range ents {
						states, _ = w.BuildSnapshot(e, states[:0])
					}
				}
			})
			b.Run(fmt.Sprintf("%s/players=%d/indexed", mp.name, players), func(b *testing.B) {
				var vis game.VisIndex
				vis.Build(w)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					vis.Build(w)
					for _, e := range ents {
						states, _ = vis.AppendVisible(e, states[:0])
					}
				}
			})
		}
	}
}

// BenchmarkVisIndexBuild isolates the once-per-frame cost of the shared
// visibility-index/state-cache build. Steady-state rebuilds must be
// allocation-free (CI gates on 0 allocs/op here).
func BenchmarkVisIndexBuild(b *testing.B) {
	for _, players := range []int{64, 144} {
		b.Run(fmt.Sprintf("players=%d", players), func(b *testing.B) {
			w, _ := snapshotWorld(b, worldmap.DefaultConfig(), players)
			var vis game.VisIndex
			vis.Build(w)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				vis.Build(w)
			}
		})
	}
}

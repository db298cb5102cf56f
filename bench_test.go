// Package qserve_test hosts the paper-reproduction benchmark harness.
// BenchmarkExperiments runs every experiment of experiments.Registry()
// as one sub-benchmark on the simulated machine, with a short virtual
// duration, and reports each Metric of its Result as a custom metric
// (b.ReportMetric), so
//
//	go test -run=NONE -bench=Experiments .
//
// regenerates the full result set in one command. cmd/qbench renders the
// same Results as long-form tables (and paper-length two-minute runs
// with -dur 120).
//
// Ownership rule: this file and cmd/qbench own the virtual-time paper
// figures and the reply-path allocation benchmarks (the 0-allocation
// gates themselves are tier-1 tests, DESIGN.md §9); everything
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
	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/worldmap"
)

// BenchmarkExperiments runs each registry experiment for 2 virtual
// seconds per configuration. The statistics are stationary, so short
// runs preserve the paper's shapes; `qbench -dur` gives tighter numbers.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := e.Run(experiments.Options{DurationS: 2, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range r.Metrics {
					b.ReportMetric(m.Value, m.Name)
				}
			}
		})
	}
}

// BenchmarkReplyPhaseAllocs measures the reply phase's per-round heap
// traffic: forming and encoding one snapshot for each of 16 players in a
// warmed-up world. "naive" is the pre-pooling path (fresh entity list,
// delta list, and encoder per client, baseline replaced wholesale, each
// client's set found by a table scan); "indexed" is the live engine's
// ReplyScratch/Baseline pipeline over the frame's visibility index. Run
// with -benchmem; the indexed path reports 0 allocs/op in steady state
// (internal/server.TestFormSnapshotSteadyStateAllocFree gates it) while
// producing byte-identical datagrams (TestGoldenReplyStream).
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

	// One shared visibility-index build per round plus 16 merge-based
	// snapshots.
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
// visibility-index/state-cache build. Steady-state rebuilds are
// allocation-free (game.TestVisIndexSteadyStateAllocFree gates it).
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

package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

// TestGoldenReplyStream is the byte-identity proof for the reply
// pipeline: a seeded 16-player world driven for ~120 frames, with every
// client's snapshot formed two ways — the allocating reference path
// over the naive table scan, and the pooled path over the frame's shared
// visibility index — must produce identical datagrams frame by frame,
// including frames with combat events, backlogs, pickups, and deaths.
func TestGoldenReplyStream(t *testing.T) {
	const (
		numPlayers = 16
		numFrames  = 120
	)
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	players := make([]*entity.Entity, numPlayers)
	for i := range players {
		players[i], err = w.SpawnPlayer()
		if err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(99))
	var idxScratch ReplyScratch
	var vis game.VisIndex
	indexed := make([]Baseline, numPlayers)
	reference := make([][]protocol.EntityState, numPlayers)
	refTags := make([]uint32, numPlayers)

	var backlog []protocol.GameEvent
	for frame := uint32(1); frame <= numFrames; frame++ {
		// Drive the world deterministically: every player moves and
		// sometimes fires, producing pickups, kills, and corpses.
		var frameEvents []protocol.GameEvent
		for i, e := range players {
			cmd := protocol.MoveCmd{
				Forward: 320,
				Yaw:     protocol.AngleToWire(float64((int(frame)*23 + i*91) % 360)),
				Msec:    33,
			}
			if rng.Float64() < 0.2 {
				cmd.Buttons |= protocol.BtnFire
			}
			if rng.Float64() < 0.1 {
				cmd.Impulse = uint8(1 + rng.Intn(2))
			}
			res := w.ExecuteMove(e, &cmd, &game.LockContext{})
			for _, ev := range res.Events {
				frameEvents = append(frameEvents, ev.WireEvent())
			}
		}
		wres := w.RunWorldFrame(0.033)
		for _, ev := range wres.Events {
			frameEvents = append(frameEvents, ev.WireEvent())
		}
		// Alternate frames carry a synthetic backlog, exercising the
		// backlog-then-frame-events ordering.
		if frame%3 == 0 {
			backlog = append(backlog[:0], protocol.GameEvent{Kind: 9, Actor: uint16(frame)})
		} else {
			backlog = backlog[:0]
		}

		serverTime := uint32(w.Time * 1000)
		vis.Build(w)
		for i, e := range players {
			if !e.Active {
				continue
			}
			ackSeq := frame*100 + uint32(i)
			want, newBase, newTag := ReferenceFormSnapshot(w, e, reference[i], refTags[i],
				frame, ackSeq, serverTime, backlog, frameEvents)
			gotIdx, stIdx := idxScratch.FormSnapshot(w, &vis, e, &indexed[i],
				frame, ackSeq, serverTime, backlog, frameEvents, 0)
			if !bytes.Equal(want, gotIdx) {
				t.Fatalf("frame %d player %d: indexed datagram differs from reference\nreference: %x\nindexed:   %x",
					frame, i, want, gotIdx)
			}
			if stIdx.Bytes != len(gotIdx) {
				t.Errorf("frame %d player %d: ReplyStats.Bytes=%d, datagram is %d bytes",
					frame, i, stIdx.Bytes, len(gotIdx))
			}
			if stIdx.Work.Visible != len(newBase) {
				t.Errorf("frame %d player %d: indexed Visible=%d, naive scan found %d",
					frame, i, stIdx.Work.Visible, len(newBase))
			}
			reference[i], refTags[i] = newBase, newTag
		}
	}

	// Invalidation mid-stream must resend full state and stay identical
	// to a reference client whose baseline is likewise cleared.
	indexed[0].Invalidate()
	reference[0] = nil
	want, _, _ := ReferenceFormSnapshot(w, players[0], reference[0], 0, 999, 1, 0, nil, nil)
	gotIdx, _ := idxScratch.FormSnapshot(w, &vis, players[0], &indexed[0], 999, 1, 0, nil, nil, 0)
	if !bytes.Equal(want, gotIdx) {
		t.Fatalf("post-invalidation indexed datagram differs from reference")
	}
}

// TestFormSnapshotSteadyStateAllocFree asserts that FormSnapshot, the
// merge over a built visibility index (AppendVisible), reports zero
// buffer growths once warmed up, and that Go's allocation counter
// agrees.
func TestFormSnapshotSteadyStateAllocFree(t *testing.T) {
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	players := make([]*entity.Entity, 8)
	for i := range players {
		if players[i], err = w.SpawnPlayer(); err != nil {
			t.Fatal(err)
		}
	}
	var vis game.VisIndex
	vis.Build(w)
	events := []protocol.GameEvent{{Kind: 1, Actor: 2}}
	t.Run("indexed", func(t *testing.T) {
		var scratch ReplyScratch
		baselines := make([]Baseline, len(players))
		form := func() int {
			allocs := 0
			for i, e := range players {
				_, st := scratch.FormSnapshot(w, &vis, e, &baselines[i], 1, 1, 1, events, events, 0)
				allocs += st.Allocs
			}
			return allocs
		}
		// Warm-up: the scratch and the 8 baselines circulate 9 distinct
		// buffers, and each must individually reach the high-water mark, so
		// convergence takes a few rounds — but it must happen.
		converged := false
		for round := 0; round < 20; round++ {
			if form() == 0 {
				converged = true
				break
			}
		}
		if !converged {
			t.Fatal("FormSnapshot buffer growth never converged to zero")
		}
		if got := form(); got != 0 {
			t.Errorf("steady-state FormSnapshot reported %d buffer growths, want 0", got)
		}
		avg := testing.AllocsPerRun(50, func() { form() })
		if avg != 0 {
			t.Errorf("steady-state FormSnapshot allocates %.1f objects/round, want 0", avg)
		}
	})
}

// TestBaselineSurvivesMigration is the regression test for the balancer
// handoff: a migration moves a client to another thread's ReplyScratch,
// but the client's Baseline must travel untouched — the delta stream
// stays byte-identical to a never-migrated reference, and the B/reply
// alloc counters reconverge to zero instead of restarting from a cold
// baseline. (The bug this guards against: resetting the baseline or its
// growth accounting during handoff, which silently inflates qbench's
// B/reply column and resends full state after every migration.)
func TestBaselineSurvivesMigration(t *testing.T) {
	const (
		numPlayers   = 8
		numFrames    = 60
		migrateFrame = 21
	)
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 4321})
	if err != nil {
		t.Fatal(err)
	}
	players := make([]*entity.Entity, numPlayers)
	for i := range players {
		if players[i], err = w.SpawnPlayer(); err != nil {
			t.Fatal(err)
		}
	}

	// Two per-thread scratches; every client starts on thread 0 and all
	// migrate to thread 1 at migrateFrame. The reference path never
	// migrates (it has no thread affinity at all).
	var threadScratch [2]ReplyScratch
	var vis game.VisIndex
	pooled := make([]Baseline, numPlayers)
	reference := make([][]protocol.EntityState, numPlayers)
	refTags := make([]uint32, numPlayers)
	postMigrationAllocs := -1

	for frame := uint32(1); frame <= numFrames; frame++ {
		for i, e := range players {
			cmd := protocol.MoveCmd{
				Forward: 320,
				Yaw:     protocol.AngleToWire(float64((int(frame)*37 + i*71) % 360)),
				Msec:    33,
			}
			w.ExecuteMove(e, &cmd, &game.LockContext{})
		}
		w.RunWorldFrame(0.033)

		thread := 0
		if frame >= migrateFrame {
			thread = 1
		}
		serverTime := uint32(w.Time * 1000)
		vis.Build(w)
		frameAllocs := 0
		for i, e := range players {
			if !e.Active {
				continue
			}
			ackSeq := frame*100 + uint32(i)
			want, newBase, newTag := ReferenceFormSnapshot(w, e, reference[i], refTags[i],
				frame, ackSeq, serverTime, nil, nil)
			reference[i], refTags[i] = newBase, newTag
			got, st := threadScratch[thread].FormSnapshot(w, &vis, e, &pooled[i],
				frame, ackSeq, serverTime, nil, nil, 0)
			if !bytes.Equal(want, got) {
				t.Fatalf("frame %d player %d (thread %d): datagram differs across migration\nreference: %x\nmigrated:  %x",
					frame, i, thread, want, got)
			}
			frameAllocs += st.Allocs
		}
		if frame > migrateFrame+5 {
			if postMigrationAllocs < 0 || frameAllocs < postMigrationAllocs {
				postMigrationAllocs = frameAllocs
			}
		}
	}
	// The new thread's scratch pays a one-time warm-up after the handoff,
	// but steady state must return to zero growths: the baseline kept its
	// buffers, so growth cannot recur every frame.
	if postMigrationAllocs != 0 {
		t.Errorf("reply path never reconverged to 0 buffer growths after migration (best frame: %d)",
			postMigrationAllocs)
	}
}

// TestBaselineGapInvalidation drives the live sequential engine's ack
// rule directly: a Move acknowledging a frame far behind the client's
// last reply must clear the baseline; a current ack must not.
func TestBaselineGapInvalidation(t *testing.T) {
	c := &client{}
	c.baseline.states = append(c.baseline.states, protocol.EntityState{ID: 1})
	c.repliedFrame.Store(1000)

	cases := []struct {
		ack        uint32
		invalidate bool
	}{
		{0, false},                        // no information: never invalidate
		{999, false},                      // current
		{1000 - baselineGapFrames, false}, // at the edge
		{1000 - baselineGapFrames - 1, true},
		{1, true}, // ancient
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("ack=%d", tc.ack), func(t *testing.T) {
			c.baseline.states = c.baseline.states[:0]
			c.baseline.states = append(c.baseline.states, protocol.EntityState{ID: 1})
			if tc.ack != 0 && c.repliedFrame.Load()-tc.ack > baselineGapFrames {
				c.baseline.Invalidate()
			}
			gotInvalidated := c.baseline.Len() == 0
			if gotInvalidated != tc.invalidate {
				t.Errorf("ack %d: invalidated=%v, want %v", tc.ack, gotInvalidated, tc.invalidate)
			}
		})
	}
}

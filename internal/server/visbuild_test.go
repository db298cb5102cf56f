package server

import (
	"sync"
	"testing"

	"qserve/internal/game"
	"qserve/internal/worldmap"
)

// TestVisBuilderSingleBuildPerFrame spins many goroutines acquiring the
// same frame concurrently: every caller must get the same index pointer,
// the build must run exactly once (the entry set does not change if
// peers re-acquire), and a new frame must trigger a rebuild. Run under
// -race this exercises the cooperative shard protocol.
func TestVisBuilderSingleBuildPerFrame(t *testing.T) {
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		if _, err := w.SpawnPlayer(); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 10; f++ {
		w.RunWorldFrame(0.033)
	}

	vb := newVisBuilder(new(game.VisIndex))
	for frame := uint64(0); frame < 5; frame++ {
		const workers = 8
		ptrs := make([]*game.VisIndex, workers)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				ptrs[k] = vb.acquire(frame, w)
			}(k)
		}
		wg.Wait()
		for k := 1; k < workers; k++ {
			if ptrs[k] != ptrs[0] {
				t.Fatalf("frame %d: worker %d got a different index pointer", frame, k)
			}
		}
		if ptrs[0].Len() < 48 {
			t.Fatalf("frame %d: index holds %d entries, want at least the 48 players", frame, ptrs[0].Len())
		}

		// Re-acquiring the same frame must be a no-op reuse.
		if again := vb.acquire(frame, w); again != ptrs[0] {
			t.Fatalf("frame %d: re-acquire returned a different pointer", frame)
		}
	}
}

// TestVisBuilderLoneWorker models a one-participant frame: a single
// worker acquiring alone must complete the whole build itself without
// waiting for peers.
func TestVisBuilderLoneWorker(t *testing.T) {
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ { // > 2 shards of 32
		if _, err := w.SpawnPlayer(); err != nil {
			t.Fatal(err)
		}
	}
	vb := newVisBuilder(new(game.VisIndex))
	vi := vb.acquire(0, w)
	if vi.Len() < 70 {
		t.Fatalf("lone build holds %d entries, want at least the 70 players", vi.Len())
	}
	viewer := w.Ents.Get(0)
	states, _ := vi.AppendVisible(viewer, nil)
	want, _ := w.BuildSnapshot(viewer, nil)
	if len(states) != len(want) {
		t.Fatalf("lone-build merge emits %d states, naive %d", len(states), len(want))
	}
}

// TestVisBuilderEmptyWorld covers the zero-shard publish path.
func TestVisBuilderEmptyWorld(t *testing.T) {
	m := worldmap.MustGenerate(worldmap.Config{
		Name: "tiny", Seed: 1, Rows: 1, Cols: 1, RoomSize: 256, WallSize: 16,
		Height: 192, DoorWidth: 64, DoorHeight: 112, VisibilityDepth: 1,
	})
	w, err := game.NewWorld(game.Config{Map: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vb := newVisBuilder(new(game.VisIndex))
	vi := vb.acquire(0, w)
	// A fresh world still contains map furniture (items, teleporters may
	// be ineligible); the point is acquire returns without hanging.
	if vi == nil {
		t.Fatal("acquire returned nil index")
	}
}

package game

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"qserve/internal/entity"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

// buildTestWorld generates a random world and drives it with scripted
// movement and fire so it holds players, items (some taken), corpses,
// and projectiles when the snapshot comparison runs.
func buildTestWorld(t testing.TB, rng *rand.Rand, rows, cols, players, frames int) (*World, []*entity.Entity) {
	t.Helper()
	mc := worldmap.DefaultConfig()
	mc.Rows, mc.Cols = rows, cols
	mc.Seed = rng.Int63()
	mc.ExtraDoorProb = rng.Float64()
	mc.VisibilityDepth = 1 + rng.Intn(4)
	m, err := worldmap.Generate(mc)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(Config{Map: m, Seed: rng.Int63()})
	if err != nil {
		t.Fatal(err)
	}
	ents := make([]*entity.Entity, players)
	for i := range ents {
		if ents[i], err = w.SpawnPlayer(); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < frames; f++ {
		for i, e := range ents {
			cmd := protocol.MoveCmd{
				Forward: 320, Msec: 33,
				Yaw: protocol.AngleToWire(float64((f*29 + i*83) % 360)),
			}
			if rng.Float64() < 0.25 {
				cmd.Buttons = protocol.BtnFire
			}
			w.ExecuteMove(e, &cmd, &LockContext{})
		}
		w.RunWorldFrame(0.033)
	}
	return w, ents
}

// assertSameSnapshot compares the indexed merge against the naive scan
// for one viewer: identical state bytes (order included), identical
// Visible counts, and the Considered count the index promises
// (wantConsidered).
func assertSameSnapshot(t *testing.T, w *World, vi *VisIndex, viewer *entity.Entity, label string) {
	t.Helper()
	wantStates, wantWork := w.BuildSnapshot(viewer, nil)
	gotStates, gotWork := vi.AppendVisible(viewer, nil)
	if len(wantStates) != len(gotStates) {
		t.Fatalf("%s: naive emits %d states, indexed %d", label, len(wantStates), len(gotStates))
	}
	for i := range wantStates {
		if wantStates[i] != gotStates[i] {
			t.Fatalf("%s: state %d differs\nnaive:   %+v\nindexed: %+v",
				label, i, wantStates[i], gotStates[i])
		}
	}
	if wantWork.Visible != gotWork.Visible {
		t.Fatalf("%s: naive Visible=%d, indexed Visible=%d", label, wantWork.Visible, gotWork.Visible)
	}
	if want := wantConsidered(w, vi, viewer); gotWork.Considered != want {
		t.Fatalf("%s: indexed Considered=%d, want %d", label, gotWork.Considered, want)
	}
}

// wantConsidered counts the entries the index examines for a viewer:
// for a fresh-room viewer, the entries in its room's take and check
// buckets (overflow included) and the stale bucket; for a doorway or
// stale viewer, every entry. The viewer itself never counts.
func wantConsidered(w *World, vi *VisIndex, viewer *entity.Entity) int {
	nRooms := len(w.Map.Rooms)
	v := viewer.RoomID
	examined := map[int32]bool{}
	fast := v >= 0 && v < nRooms && w.static.visRoomBounds[v].Contains(viewer.Origin)
	if fast {
		examined[int32(nRooms+1)] = true
		for _, b := range w.static.visTake[v] {
			examined[b] = true
		}
		for _, b := range w.static.visCheck[v] {
			examined[b] = true
		}
	}
	n := 0
	for i, id := range vi.ids {
		if id != viewer.ID && (!fast || examined[vi.buckets[i]]) {
			n++
		}
	}
	return n
}

// setEligible adds players to, or removes items and players from, w
// until exactly n entities are snapshot-eligible.
func setEligible(t *testing.T, w *World, n int) {
	t.Helper()
	var vi VisIndex
	for {
		vi.Begin(w)
		d := vi.Len() - n
		if d == 0 {
			return
		}
		for ; d < 0; d++ {
			if _, err := w.SpawnPlayer(); err != nil {
				t.Fatal(err)
			}
		}
		for i := len(vi.ids) - 1; i >= 0 && d > 0; i-- {
			switch e := w.Ents.Get(vi.ids[i]); e.Class {
			case entity.ClassItem:
				w.unlink(e)
				d--
			case entity.ClassPlayer:
				w.RemovePlayer(e.ID)
				d--
			}
		}
		if d > 0 {
			t.Fatalf("cannot bring the eligible population down to %d", n)
		}
	}
}

// TestVisIndexEquivalenceRandomized is the property test for the
// frame-coherent visibility index: across random worlds (map shapes,
// connectivity, visibility depth, population mix), the indexed merge
// must emit byte-identical entity states to the naive per-client scan
// for every viewer — including viewers whose cached room is unknown
// (doorway band) or stale, and worlds where entities' cached rooms have
// gone stale.
func TestVisIndexEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 12; trial++ {
		rows, cols := 2+rng.Intn(5), 2+rng.Intn(5)
		players := 8 + rng.Intn(25)
		w, ents := buildTestWorld(t, rng, rows, cols, players, 20+rng.Intn(30))

		// Corrupt some cached rooms to exercise the stale and overflow
		// buckets: the index must fall back to naive semantics for them.
		nRooms := len(w.Map.Rooms)
		w.Ents.ForEach(func(e *entity.Entity) {
			switch rng.Intn(10) {
			case 0:
				e.RoomID = -1 // doorway band: room unknown
			case 1:
				e.RoomID = rng.Intn(nRooms) // possibly stale
			}
		})

		var vi VisIndex
		vi.Build(w)
		for i, e := range ents {
			if !e.Active {
				continue
			}
			assertSameSnapshot(t, w, &vi, e, fmt.Sprintf("trial %d viewer %d (room %d)", trial, i, e.RoomID))
		}
	}

	// Word boundaries: eligible populations either side of one and two
	// 64-entry words, with the entries at bit 0 and bit 63 of each word
	// as viewers too.
	for _, n := range []int{63, 64, 65, 128} {
		w, ents := buildTestWorld(t, rng, 3, 3, 24, 30)
		setEligible(t, w, n)
		var vi VisIndex
		vi.Build(w)
		if vi.Len() != n {
			t.Fatalf("population %d: index holds %d entries", n, vi.Len())
		}
		for i, e := range ents {
			if e.Active {
				assertSameSnapshot(t, w, &vi, e, fmt.Sprintf("population %d viewer %d (room %d)", n, i, e.RoomID))
			}
		}
		for _, bit := range []int{0, 63, 64, 127} {
			if bit < n {
				e := w.Ents.Get(vi.ids[bit])
				assertSameSnapshot(t, w, &vi, e, fmt.Sprintf("population %d entry %d (%v, room %d)", n, bit, e.Class, e.RoomID))
			}
		}
	}
}

// TestVisIndexEquivalenceTinyMap covers the degenerate 1x1 map (a single
// room: no doorways, trivially full visibility).
func TestVisIndexEquivalenceTinyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, ents := buildTestWorld(t, rng, 1, 1, 6, 10)
	var vi VisIndex
	vi.Build(w)
	for i, e := range ents {
		if !e.Active {
			continue
		}
		assertSameSnapshot(t, w, &vi, e, fmt.Sprintf("viewer %d", i))
	}
}

// TestVisIndexConcurrentBuildAndMerge drives the cooperative build
// protocol the way the parallel engine does — several goroutines
// claiming encode shards, then merging concurrently with private merge
// scratches — and checks equivalence. Run under -race this doubles as
// the data-race proof for the shared index.
func TestVisIndexConcurrentBuildAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	w, ents := buildTestWorld(t, rng, 4, 4, 24, 40)

	const workers = 4
	var vi VisIndex
	vi.Begin(w)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				s := next
				next++
				mu.Unlock()
				if s >= vi.Shards() {
					return
				}
				vi.EncodeShard(s)
			}
		}()
	}
	wg.Wait()

	// Concurrent merges over the shared index.
	errs := make(chan error, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i, e := range ents {
				if i%workers != k || !e.Active {
					continue
				}
				want, wantWork := w.BuildSnapshot(e, nil)
				got, gotWork := vi.AppendVisible(e, nil)
				if len(want) != len(got) || wantWork.Visible != gotWork.Visible {
					errs <- fmt.Errorf("viewer %d: naive %d states, indexed %d", i, len(want), len(got))
					return
				}
				for j := range want {
					if want[j] != got[j] {
						errs <- fmt.Errorf("viewer %d state %d differs", i, j)
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVisIndexSteadyStateAllocFree asserts that rebuilding the index
// over an unchanged world allocates nothing once warmed up.
func TestVisIndexSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w, _ := buildTestWorld(t, rng, 4, 4, 32, 30)
	var vi VisIndex
	vi.Build(w)
	avg := testing.AllocsPerRun(50, func() { vi.Build(w) })
	if avg != 0 {
		t.Errorf("steady-state VisIndex.Build allocates %.1f objects/run, want 0", avg)
	}
}

package replay

import (
	"testing"

	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

// TestRecorderZeroAllocs gates the steady-state allocation contract: a
// reserved recorder's hot-path taps (move, tick, frame end) allocate
// nothing. This is what makes attaching a recorder to a production
// server free of GC pressure.
func TestRecorderZeroAllocs(t *testing.T) {
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 1000
	rec.Reserve(3 * rounds * 100)
	cmd := protocol.MoveCmd{Forward: 120, Yaw: 90, Msec: 33}
	var frame uint64
	allocs := testing.AllocsPerRun(rounds, func() {
		for i := 0; i < 100; i++ {
			rec.RecordMove(uint16(i&15), uint32(i), &cmd)
		}
		rec.RecordTick(16_000_000)
		rec.RecordFrameEnd(frame)
		frame++
	})
	if allocs != 0 {
		t.Fatalf("recorder hot path allocates %.1f times per frame; want 0", allocs)
	}
}

// TestRecorderOverheadBudget gates the CPU contract: one RecordMove tap
// must cost under 5%% of the move execution it rides on, measured
// against ExecuteMove on a 96-player world (the paper's largest
// single-server population). The recorder is an append of a flat struct
// under an uncontended mutex — it measures around 0.1%% — so the 5%%
// gate has wide headroom against machine noise.
func TestRecorderOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	w, ents := bench96(t)
	cmd := protocol.MoveCmd{Forward: 240, Yaw: 45, Buttons: protocol.BtnFire, Msec: 33}

	moveNs := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := ents[i%len(ents)]
			c := cmd
			c.Yaw = int16(i)
			w.ExecuteMove(e, &c, &game.LockContext{})
		}
	}).NsPerOp()

	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	tapNs := testing.Benchmark(func(b *testing.B) {
		rec, err := NewRecorder(m, 1)
		if err != nil {
			b.Fatal(err)
		}
		rec.Reserve(b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.RecordMove(uint16(i&63), uint32(i), &cmd)
		}
	}).NsPerOp()

	if moveNs <= 0 {
		t.Fatalf("degenerate ExecuteMove measurement: %d ns/op", moveNs)
	}
	pct := 100 * float64(tapNs) / float64(moveNs)
	t.Logf("RecordMove %d ns/op vs ExecuteMove %d ns/op on 96 players: %.2f%% overhead", tapNs, moveNs, pct)
	if pct >= 5 {
		t.Fatalf("recorder overhead %.2f%% of frame move cost; budget is 5%%", pct)
	}
}

// BenchmarkRecorderOverhead reports the raw tap cost (TestRecorderZeroAllocs
// holds the taps to 0 allocations).
func BenchmarkRecorderOverhead(b *testing.B) {
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		b.Fatal(err)
	}
	rec, err := NewRecorder(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	rec.Reserve(b.N)
	cmd := protocol.MoveCmd{Forward: 120, Yaw: 90, Msec: 33}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.RecordMove(uint16(i&63), uint32(i), &cmd)
	}
}

// bench96 builds a 96-player world for the overhead measurements.
func bench96(t testing.TB) (*game.World, []*entity.Entity) {
	t.Helper()
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 3, MaxEntities: 96*4 + len(m.Items) + 64})
	if err != nil {
		t.Fatal(err)
	}
	ents := make([]*entity.Entity, 96)
	for i := range ents {
		e, err := w.SpawnPlayer()
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = e
	}
	return w, ents
}

package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"qserve/internal/entity"
	"qserve/internal/protocol"
	"qserve/internal/qfile"
	"qserve/internal/worldmap"
)

// TestWriterFullCapture captures a live world and checks the decoded
// file against the world field by field.
func TestWriterFullCapture(t *testing.T) {
	world, m, ids := liveWorld(t)
	dir := t.TempDir()
	wr, err := NewWriter(Config{Dir: dir, WorldSeed: 7, Map: m})
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{Frame: 30, RecItems: 123, JoinIdx: 4, NextClientID: 3}
	clients := sampleClients(ids)
	st := capture(t, wr, world, meta, clients)
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatal("first capture was not a full image")
	}

	ck, err := ReadFile(filepath.Join(dir, FileName(30, true)))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Frame != meta.Frame || ck.RecItems != meta.RecItems ||
		ck.JoinIdx != meta.JoinIdx || ck.NextClientID != meta.NextClientID {
		t.Fatalf("meta counters wrong: %+v", ck)
	}
	if ck.WorldSeed != 7 || ck.ProtoVer != protocol.Version {
		t.Fatalf("header wrong: seed %d proto %d", ck.WorldSeed, ck.ProtoVer)
	}
	if ck.WorldTime != world.Time || ck.SpawnCursor != world.SpawnCursor() ||
		ck.HighWater != world.Ents.HighWater() || ck.Capacity != world.Ents.Capacity() ||
		ck.TreeDepth != world.Tree.Depth() {
		t.Fatalf("world geometry wrong: %+v", ck)
	}
	if want := snapshotRecs(world); !reflect.DeepEqual(ck.Entities, want) {
		t.Fatalf("entity section diverges from the live table: %d vs %d records", len(ck.Entities), len(want))
	}
	if len(ck.Free) != len(world.Ents.FreeList()) {
		t.Fatalf("free list wrong: %d vs %d", len(ck.Free), len(world.Ents.FreeList()))
	}
	if !reflect.DeepEqual(ck.Clients, clients) {
		t.Fatalf("client section did not round-trip:\n got %+v\nwant %+v", ck.Clients, clients)
	}
	if err := ck.VerifyDigest(); err != nil {
		t.Fatal(err)
	}
	if ck.Digest != worldDigest(world) {
		t.Fatalf("digest %016x does not match the live world's %016x", ck.Digest, worldDigest(world))
	}
}

// TestWriterDeltaCadence drives the full/delta rotation and checks that
// every intermediate state recovers exactly through LoadLatest.
func TestWriterDeltaCadence(t *testing.T) {
	world, m, ids := liveWorld(t)
	dir := t.TempDir()
	wr, err := NewWriter(Config{Dir: dir, WorldSeed: 7, Map: m, DeltaEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()

	wantFull := []bool{true, false, false, true, false}
	frame := uint64(30)
	for i, wf := range wantFull {
		st := capture(t, wr, world, Meta{Frame: frame}, sampleClients(ids))
		if st.Full != wf {
			t.Fatalf("capture %d: full=%v, want %v", i, st.Full, wf)
		}
		waitFile(t, filepath.Join(dir, FileName(frame, wf)))

		ck, err := LoadLatest(dir)
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		if ck.Frame != frame {
			t.Fatalf("capture %d: LoadLatest found frame %d, want %d", i, ck.Frame, frame)
		}
		if ck.Digest != worldDigest(world) {
			t.Fatalf("capture %d: recovered digest diverges", i)
		}
		restored, err := ck.RestoreWorld()
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		if worldDigest(restored) != worldDigest(world) {
			t.Fatalf("capture %d: restored world diverges", i)
		}

		stepWorld(world, ids, int(frame), int(frame)+10)
		frame += 10
	}
	if err := wr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoredWorldEvolves is the recovery-line claim: a restored world
// does not just match the original at the capture point, it evolves
// identically under identical inputs (gameplay is rule-driven, no
// hidden state outside the checkpoint).
func TestRestoredWorldEvolves(t *testing.T) {
	world, m, ids := liveWorld(t)
	dir := t.TempDir()
	captureToFile(t, world, m, ids, dir, 30)
	ck, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ck.RestoreWorld()
	if err != nil {
		t.Fatal(err)
	}
	stepWorld(world, ids, 30, 80)
	stepWorld(restored, ids, 30, 80)
	if worldDigest(restored) != worldDigest(world) {
		t.Fatalf("restored world diverged after 50 frames: %016x vs %016x",
			worldDigest(restored), worldDigest(world))
	}
}

// TestRestoreAcrossChunkBoundary round-trips a world whose high-water
// mark has crossed the entity table's 64-slot chunk boundary, with
// free-list holes on both sides of it: the restored table must hold the
// same entities, recycle IDs in the same order, and evolve identically.
func TestRestoreAcrossChunkBoundary(t *testing.T) {
	world, m, ids := liveWorld(t)
	var extra []entity.ID
	for world.Ents.HighWater() < 80 {
		e, err := world.SpawnPlayer()
		if err != nil {
			t.Fatal(err)
		}
		extra = append(extra, e.ID)
	}
	// Holes below and above slot 64; the survivors keep moving.
	for _, id := range extra {
		if id == 62 || id == 65 || id == 77 {
			world.RemovePlayer(id)
		} else {
			ids = append(ids, id)
		}
	}
	var below, above bool
	for _, id := range world.Ents.FreeList() {
		below = below || id < 64
		above = above || id >= 64
	}
	if !below || !above {
		t.Fatalf("free list %v does not straddle slot 64", world.Ents.FreeList())
	}
	stepWorld(world, ids, 30, 40)
	dir := t.TempDir()
	captureToFile(t, world, m, ids, dir, 40)
	ck, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ck.RestoreWorld()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Ents.FreeList(), world.Ents.FreeList()) {
		t.Fatalf("free list: restored %v, original %v", restored.Ents.FreeList(), world.Ents.FreeList())
	}
	if restored.Ents.HighWater() != world.Ents.HighWater() || restored.Ents.Capacity() != world.Ents.Capacity() {
		t.Fatalf("restored high water/capacity %d/%d, original %d/%d",
			restored.Ents.HighWater(), restored.Ents.Capacity(), world.Ents.HighWater(), world.Ents.Capacity())
	}
	stepWorld(world, ids, 40, 70)
	stepWorld(restored, ids, 40, 70)
	if worldDigest(restored) != worldDigest(world) {
		t.Fatalf("restored world diverged: %016x vs %016x", worldDigest(restored), worldDigest(world))
	}
}

// TestWriterSkipWhenBusy starves the writer of encode buffers and
// checks that a due capture skips — counted, non-blocking — instead of
// stalling the frame.
func TestWriterSkipWhenBusy(t *testing.T) {
	world, m, _ := liveWorld(t)
	dir := t.TempDir()
	wr, err := NewWriter(Config{Dir: dir, WorldSeed: 7, Map: m, Interval: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()

	if wr.Due(0) || wr.Due(15) || !wr.Due(10) || !wr.Due(20) {
		t.Fatal("Due cadence wrong")
	}

	b1, b2 := <-wr.free, <-wr.free // simulate the flusher owning both buffers
	if wr.Begin(world, Meta{Frame: 10}) {
		t.Fatal("Begin succeeded with no free buffer")
	}
	wr.AddClient(ClientRec{ID: 1}) // must be a no-op
	if st := wr.Commit(); st != (Stats{}) {
		t.Fatalf("Commit after a skipped Begin returned %+v", st)
	}
	if wr.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", wr.Skipped())
	}
	wr.free <- b1
	wr.free <- b2
	if !wr.Begin(world, Meta{Frame: 20}) {
		t.Fatal("Begin failed after buffers returned")
	}
	wr.Commit()
	waitFile(t, filepath.Join(dir, FileName(20, true)))
}

// TestLoadLatestFallsBack corrupts newer files and checks recovery
// degrades to the newest still-valid state instead of failing.
func TestLoadLatestFallsBack(t *testing.T) {
	world, m, ids := liveWorld(t)
	dir := t.TempDir()
	wr, err := NewWriter(Config{Dir: dir, WorldSeed: 7, Map: m, DeltaEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	capture(t, wr, world, Meta{Frame: 30}, nil)
	digest30 := worldDigest(world)
	stepWorld(world, ids, 30, 40)
	capture(t, wr, world, Meta{Frame: 40}, nil) // delta on the frame-30 base
	digest40 := worldDigest(world)
	stepWorld(world, ids, 40, 50)
	capture(t, wr, world, Meta{Frame: 50}, nil) // delta on the frame-30 base
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn newest delta: fall back to the frame-40 delta.
	p50 := filepath.Join(dir, FileName(50, false))
	data, err := os.ReadFile(p50)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p50, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Frame != 40 || ck.Digest != digest40 {
		t.Fatalf("expected frame 40 fallback, got frame %d", ck.Frame)
	}

	// Bit-rotted base image: its deltas are unrecoverable too, but the
	// base name pattern still sorts below — nothing valid remains except
	// nothing. Restore the base and instead delete the deltas to check
	// the full image alone recovers.
	if err := os.Remove(filepath.Join(dir, FileName(40, false))); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(p50); err != nil {
		t.Fatal(err)
	}
	ck, err = LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Frame != 30 || ck.Digest != digest30 {
		t.Fatalf("expected frame 30 fallback, got frame %d", ck.Frame)
	}

	// A delta whose base full image is corrupt is skipped even though the
	// delta itself is pristine.
	base := filepath.Join(dir, FileName(30, true))
	data, err = os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLatest(dir); err == nil {
		t.Fatal("LoadLatest succeeded with every file corrupt")
	}
}

// TestWriterPrunesOldGenerations drives five full/delta rotations and
// requires the directory to stay bounded at two generations — the
// previous full image with its deltas, and the current one — with
// recovery intact: LoadLatest returns the newest frame, and when the
// newest file (a full image, alone in its generation) is torn, the
// generation kept for exactly that case still recovers.
func TestWriterPrunesOldGenerations(t *testing.T) {
	world, m, ids := liveWorld(t)
	dir := t.TempDir()
	const deltaEvery = 2
	wr, err := NewWriter(Config{Dir: dir, WorldSeed: 7, Map: m, DeltaEvery: deltaEvery})
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()

	frame := uint64(30)
	var digests []uint64 // by capture index
	// Capture 4*(deltaEvery+1) is the fifth full image.
	for i := 0; i <= 4*(deltaEvery+1); i++ {
		capture(t, wr, world, Meta{Frame: frame}, sampleClients(ids))
		digests = append(digests, worldDigest(world))
		// The flusher prunes after it has handed the buffer back, so wait
		// for the directory itself: capture i renamed in, and no more than
		// two generations left.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			files, err := ListDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			fulls := 0
			for _, fi := range files {
				if fi.Full {
					fulls++
				}
			}
			if n := len(files); n > 0 && files[n-1].Frame == frame && fulls <= 2 && n <= 2*(deltaEvery+1) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("after capture %d the directory holds %d files, %d full images: %v", i, len(files), fulls, files)
			}
		}
		ck, err := LoadLatest(dir)
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		if ck.Frame != frame || ck.Digest != digests[i] {
			t.Fatalf("capture %d: LoadLatest found frame %d, want %d", i, ck.Frame, frame)
		}
		stepWorld(world, ids, int(frame), int(frame)+10)
		frame += 10
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != deltaEvery+2 || !files[0].Full || !files[len(files)-1].Full {
		t.Fatalf("expected one whole generation plus the newest full image, found %v", files)
	}
	newest := files[len(files)-1].Path
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadLatest(dir)
	if err != nil {
		t.Fatalf("no fallback after the newest image was torn: %v", err)
	}
	if last := len(digests) - 2; ck.Frame != frame-20 || ck.Digest != digests[last] {
		t.Fatalf("fallback found frame %d, want the previous generation's last delta at %d", ck.Frame, frame-20)
	}
}

// TestWriterCaptureAllocs is the allocation gate on the barrier-side
// capture path: steady-state Begin (or BeginWait), AddClient and Commit
// must not allocate. The writer's flusher is replaced by an
// allocation-free drainer that skips the file write, so the measurement
// isolates the capture path.
func TestWriterCaptureAllocs(t *testing.T) {
	world, m, ids := liveWorld(t)
	clients := sampleClients(ids)
	wr := newDrainedWriter(t, m)
	wr.cfg.DeltaEvery = 1 // alternate full images and deltas
	meta := Meta{Frame: 30, RecItems: 5, JoinIdx: 3, NextClientID: 3}

	var deltas int
	capture := func(begin func()) func() {
		return func() {
			begin()
			for _, c := range clients {
				wr.AddClient(c)
			}
			if !wr.Commit().Full {
				deltas++
			}
		}
	}
	run := capture(func() {
		for !wr.Begin(world, meta) {
			runtime.Gosched() // the drainer owns both buffers for an instant
		}
	})
	runWait := capture(func() { wr.BeginWait(world, meta) })
	run() // warm-up: grows cur and the encode scratch
	run() // warm-up: grows base (the record buffers swap on full captures)

	if allocs := testing.AllocsPerRun(32, run); allocs != 0 {
		t.Fatalf("capture path allocates: %.1f allocs/op", allocs)
	}
	if allocs := testing.AllocsPerRun(32, runWait); allocs != 0 {
		t.Fatalf("capture path through BeginWait allocates: %.1f allocs/op", allocs)
	}
	if deltas == 0 {
		t.Fatal("no delta capture was measured")
	}
}

// newDrainedWriter builds a writer whose flush requests are drained by
// an allocation-free goroutine that returns buffers without touching
// the filesystem.
func newDrainedWriter(t testing.TB, m *worldmap.Map) *Writer {
	t.Helper()
	var mb bytes.Buffer
	if err := m.Save(&mb); err != nil {
		t.Fatal(err)
	}
	w := &Writer{
		cfg:    Config{Dir: t.TempDir(), WorldSeed: 7},
		header: qfile.AppendHeader(nil, ckMagic, FormatVersion, 7, protocol.Version, mb.Bytes()),
		free:   make(chan []byte, 2),
		reqs:   make(chan flushReq, 2),
		done:   make(chan struct{}),
	}
	w.free <- make([]byte, 0, len(w.header)+1<<16)
	w.free <- make([]byte, 0, len(w.header)+1<<16)
	go func() {
		for req := range w.reqs {
			w.free <- req.buf
		}
	}()
	return w
}

// BenchmarkWriterCapture measures the barrier-side cost of one full
// capture of a small live world — the ns/op is what the reply barrier
// pays; the file write is off-thread.
func BenchmarkWriterCapture(b *testing.B) {
	world, m, ids := liveWorld(b)
	clients := sampleClients(ids)
	wr := newDrainedWriter(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !wr.Begin(world, Meta{Frame: uint64(30 + i)}) {
			runtime.Gosched()
		}
		for _, c := range clients {
			wr.AddClient(c)
		}
		wr.Commit()
	}
}

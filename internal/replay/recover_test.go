package replay

import (
	"os"
	"path/filepath"
	"testing"

	"qserve/internal/checkpoint"
	"qserve/internal/protocol"
	"qserve/internal/simserver"
	"qserve/internal/worldmap"
)

// recoverScript is the deterministic drive used by the recovery matrix.
func recoverScript() SessionScript {
	return SessionScript{
		Players: 6,
		Moves:   40,
		Cmd: func(player int, step int64) protocol.MoveCmd {
			return protocol.MoveCmd{
				Forward: 320,
				Side:    int16((step%7 - 3) * 50),
				Yaw:     protocol.AngleToWire(float64((player*60 + int(step)*11) % 360)),
				Buttons: uint8(step % 2),
				Msec:    16,
			}
		},
	}
}

// TestRecoverCrossEngine is the durability acceptance matrix: record a
// session on each live engine configuration with checkpointing on, then
// cold-start from the newest checkpoint in the directory plus the log
// as redo tail, and require the recovered world to fold to exactly the
// digest the session ended with. The tail replay crosses the engines'
// scheduling differences — the checkpoint cut can land anywhere — so
// passing here means checkpoint + redo log reconstruct the pre-crash
// state regardless of which engine produced it.
func TestRecoverCrossEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery matrix is a long test")
	}
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	const seed = int64(23)

	configs := []LiveConfig{
		{Threads: 0},
		{Threads: 2},
		{Threads: 4, Balance: true},
		{Threads: 4, Stealing: true},
		{Threads: 8, Balance: true, Stealing: true},
	}
	for _, lc := range configs {
		lc := lc
		t.Run(lc.String(), func(t *testing.T) {
			dir := t.TempDir()
			wr, err := checkpoint.NewWriter(checkpoint.Config{
				Dir: dir, WorldSeed: seed, Map: m, Interval: 8, DeltaEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			lc.Checkpoint = wr
			lg, res, err := RecordSession(m, seed, lc, recoverScript())
			if err != nil {
				t.Fatal(err)
			}
			if err := wr.Close(); err != nil {
				t.Fatal(err)
			}
			if !res.EndDigestMatch {
				t.Fatal("lockstep recording should match its own end digest")
			}

			// The recorded log doubles as the redo tail a file-sink
			// recorder would have left behind.
			data, err := lg.Encode()
			if err != nil {
				t.Fatal(err)
			}
			tail := filepath.Join(t.TempDir(), "session.qrl")
			if err := os.WriteFile(tail, data, 0o644); err != nil {
				t.Fatal(err)
			}

			rv, err := Recover(dir, tail)
			if err != nil {
				t.Fatal(err)
			}
			if got := TableDigest(rv.World); got != res.TableDigest {
				t.Fatalf("recovered world folds %016x, session ended at %016x (checkpoint frame %d, %d tail items)",
					got, res.TableDigest, rv.Checkpoint.Frame, rv.TailItems)
			}
			if rv.Checkpoint.Frame == 0 {
				t.Fatal("no checkpoint was ever captured")
			}
			t.Logf("%s: recovered from frame %d (+%d tail items, %d clients)",
				lc, rv.Checkpoint.Frame, rv.TailItems, len(rv.Clients))
		})
	}
}

// TestRecoverDES runs the recovery arm on the discrete-event engine: a
// deterministic playback run captures checkpoints and re-records its
// input stream; recovery from the newest checkpoint plus that stream
// must land on the DES run's exact final table.
func TestRecoverDES(t *testing.T) {
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	const seed = int64(23)

	// A lockstep live session provides the input stream.
	lg, _, err := RecordSession(m, seed, LiveConfig{Threads: 2}, recoverScript())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ToPlayback(lg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	wr, err := checkpoint.NewWriter(checkpoint.Config{
		Dir: dir, WorldSeed: seed, Map: m, Interval: 10, DeltaEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecorder(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simserver.Run(simserver.Config{
		Map:        m,
		Threads:    2,
		Seed:       seed,
		Playback:   pb,
		Record:     rec,
		Checkpoint: wr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	want := TableDigest(res.World)

	desLog := rec.Finish(res.World)
	data, err := desLog.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tail := filepath.Join(t.TempDir(), "des.qrl")
	if err := os.WriteFile(tail, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rv, err := Recover(dir, tail)
	if err != nil {
		t.Fatal(err)
	}
	if got := TableDigest(rv.World); got != want {
		t.Fatalf("DES recovery folds %016x, run ended at %016x (checkpoint frame %d, %d tail items)",
			got, want, rv.Checkpoint.Frame, rv.TailItems)
	}
	if rv.Checkpoint.Frame == 0 {
		t.Fatal("the DES run never captured a checkpoint")
	}
	if res.Avg.Checkpoints == 0 || res.Avg.CheckpointBytes == 0 {
		t.Fatalf("DES breakdown did not account the captures: %+v", res.Avg)
	}
}

package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"qserve/internal/checkpoint"
	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

// Format pins: the SHA-256 of the streamed `.qrl`, of a full and of a
// delta `.qck`, and the world digest of one fixed scripted session (12
// players, 24 frames, a departure and a late joiner so the delta carries
// gone and new entities). They were captured before the container moved
// into internal/qfile and fail if a byte of either format — framing,
// record payloads, the meta record, the chunked id lists — or the
// digest's field list, order or widths ever changes. Bump FormatVersion
// and re-pin together, never one without the other.
const (
	pinQRL       = "c6425d635c917dbc018b769571968c3517b47ca7d9bf56a97c80539d775f2e80"
	pinFullQCK   = "ddb5308abefa92d6883b43542195861d3ec2abb02c9e063a522081f8f8613c21"
	pinDeltaQCK  = "5e359401e32b720ee998042c5f057254bb19df4595cd2996ac8dcc28eaab4ce0"
	pinDigest12  = uint64(0x8dfd23317e298fa2)
	pinDigest24  = uint64(0xcaa4357336714a26)
	pinQRLFormat = 1
	pinQCKFormat = 1
)

func fileSHA(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestFormatPins(t *testing.T) {
	if FormatVersion != pinQRLFormat || checkpoint.FormatVersion != pinQCKFormat {
		t.Fatalf("format versions %d/%d moved; re-pin the hashes with them", FormatVersion, checkpoint.FormatVersion)
	}
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := game.NewWorld(game.Config{Map: m, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	qrl := filepath.Join(dir, "session.qrl")
	rec, err := NewStreamRecorder(qrl, m, 11)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := checkpoint.NewWriter(checkpoint.Config{Dir: dir, WorldSeed: 11, Map: m, DeltaEvery: 8})
	if err != nil {
		t.Fatal(err)
	}

	var ents []*entity.Entity // indexed by client id; nil once gone
	join := func(name string) {
		e, err := w.SpawnPlayer()
		if err != nil {
			t.Fatal(err)
		}
		rec.RecordConnect(uint16(len(ents)), int32(e.ID), len(ents)%2, name)
		ents = append(ents, e)
	}
	for i := 0; i < 12; i++ {
		join("pin-" + string(rune('a'+i)))
	}
	capture := func(frame uint64) uint64 {
		if !wr.Begin(w, checkpoint.Meta{Frame: frame, RecItems: uint64(rec.Items()), JoinIdx: len(ents), NextClientID: uint16(len(ents))}) {
			t.Fatalf("capture of frame %d skipped", frame)
		}
		for id, e := range ents {
			if e == nil {
				continue
			}
			x, y, z := protocol.QuantizeVec(e.Origin)
			wr.AddClient(checkpoint.ClientRec{
				ID: uint16(id), EntID: int32(e.ID), Thread: uint8(id % 2),
				LastSeq: uint32(frame), RepliedFrame: uint32(frame), LoadNs: int64(1000 * id),
				Name: "pin-" + string(rune('a'+id)), Addr: "mem:" + string(rune('a'+id)),
				BaselineTag: uint32(frame + 1),
				Baseline:    []protocol.EntityState{{ID: uint16(e.ID), Class: uint8(e.Class), X: x, Y: y, Z: z, Yaw: uint8(id)}},
			})
		}
		wr.Commit()
		return TableDigest(w)
	}

	lc := &game.LockContext{}
	var digest12, digest24 uint64
	for f := uint64(1); f <= 24; f++ {
		for id, e := range ents {
			if e == nil {
				continue
			}
			cmd := protocol.MoveCmd{
				Pitch:   int16(f) - 12,
				Yaw:     protocol.AngleToWire(float64((id*30 + int(f)*7) % 360)),
				Forward: 320,
				Side:    int16((int(f)%5 - 2) * 60),
				Up:      int16(id),
				Buttons: uint8((int(f) + id) % 4),
				Impulse: uint8(id % 3),
				Msec:    16,
			}
			w.ExecuteMove(e, &cmd, lc)
			rec.RecordMove(uint16(id), uint32(f), &cmd)
		}
		w.RunWorldFrame(0.033)
		rec.RecordTick(33_000_000)
		switch f {
		case 6:
			rec.RecordShed(1)
			rec.RecordMigrate(3, 0)
		case 16:
			w.RemovePlayer(ents[5].ID)
			rec.RecordDisconnect(5, 1)
			ents[5] = nil
		case 18:
			join("pin-late")
		}
		rec.RecordFrameEnd(f)
		switch f {
		case 12:
			digest12 = capture(f)
		case 24:
			digest24 = capture(f)
		}
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	full := filepath.Join(dir, checkpoint.FileName(12, true))
	delta := filepath.Join(dir, checkpoint.FileName(24, false))
	if got := fileSHA(t, qrl); got != pinQRL {
		t.Errorf("streamed .qrl bytes changed: sha256 %s, pinned %s", got, pinQRL)
	}
	if got := fileSHA(t, full); got != pinFullQCK {
		t.Errorf("full .qck bytes changed: sha256 %s, pinned %s", got, pinFullQCK)
	}
	if got := fileSHA(t, delta); got != pinDeltaQCK {
		t.Errorf("delta .qck bytes changed: sha256 %s, pinned %s", got, pinDeltaQCK)
	}
	if digest12 != pinDigest12 || digest24 != pinDigest24 {
		t.Errorf("TableDigest changed: %#016x/%#016x, pinned %#016x/%#016x", digest12, digest24, pinDigest12, pinDigest24)
	}

	// The recovery side folds the same digest: the newest checkpoint (the
	// delta merged onto its base) verifies, carries the live value, and
	// restores a world that folds to it.
	ck, err := checkpoint.LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Frame != 24 || ck.Digest != digest24 {
		t.Fatalf("LoadLatest: frame %d digest %#016x, want frame 24 digest %#016x", ck.Frame, ck.Digest, digest24)
	}
	rw, err := ck.RestoreWorld()
	if err != nil {
		t.Fatal(err)
	}
	if got := TableDigest(rw); got != digest24 {
		t.Fatalf("restored world folds %#016x, live world %#016x", got, digest24)
	}
	// And the log decodes whole.
	lg, dropped, err := ReadPrefixFile(qrl)
	if err != nil || dropped != 0 {
		t.Fatalf("pinned log: %v (%d bytes dropped)", err, dropped)
	}
	if lg.Moves() != 12*16+11*2+12*6 || lg.Ticks() != 24 {
		t.Fatalf("pinned log holds %d moves, %d ticks", lg.Moves(), lg.Ticks())
	}
}

package qfile_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/qfile"
	"qserve/internal/replay"
	"qserve/internal/worldmap"
)

// container is one real file of either format plus the (magic, version)
// its package opens it with.
type container struct {
	name    string
	magic   string
	version uint16
	data    []byte
}

// containers produces the two files the way production does — a `.qrl`
// streamed by a sink-backed replay.Recorder and a `.qck` captured by a
// checkpoint.Writer — over a deliberately small map, so the header is a
// few KB and every bit of it can be flipped.
func containers(t testing.TB) []container {
	t.Helper()
	cfg := worldmap.DefaultArenaConfig()
	cfg.PillarGrid, cfg.Items, cfg.Spawns, cfg.WaypointGrid = 0, 0, 4, 2
	m, err := worldmap.GenerateArena(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := game.NewWorld(game.Config{Map: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	qrl := filepath.Join(dir, "session.qrl")
	rec, err := replay.NewStreamRecorder(qrl, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := checkpoint.NewWriter(checkpoint.Config{Dir: dir, WorldSeed: 3, Map: m})
	if err != nil {
		t.Fatal(err)
	}
	lc := &game.LockContext{}
	for id := 0; id < 3; id++ {
		e, err := w.SpawnPlayer()
		if err != nil {
			t.Fatal(err)
		}
		rec.RecordConnect(uint16(id), int32(e.ID), 0, "bot")
		for f := 1; f <= 4; f++ {
			cmd := protocol.MoveCmd{Forward: 300, Yaw: protocol.AngleToWire(float64(id*90 + f)), Msec: 16}
			w.ExecuteMove(e, &cmd, lc)
			rec.RecordMove(uint16(id), uint32(f), &cmd)
		}
		w.RunWorldFrame(0.033)
		rec.RecordTick(33_000_000)
		rec.RecordFrameEnd(uint64(id))
	}
	if !wr.Begin(w, checkpoint.Meta{Frame: 3, RecItems: uint64(rec.Items())}) {
		t.Fatal("capture skipped")
	}
	wr.AddClient(checkpoint.ClientRec{ID: 0, EntID: 1, Name: "bot", Addr: "mem:0"})
	wr.Commit()
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return []container{
		{"qrl", "QRPL", replay.FormatVersion, read(qrl)},
		{"qck", "QCKP", checkpoint.FormatVersion, read(filepath.Join(dir, checkpoint.FileName(3, true)))},
	}
}

var sentinels = []error{
	qfile.ErrBadMagic, qfile.ErrBadVersion, qfile.ErrTruncated,
	qfile.ErrChecksum, qfile.ErrBadRecord, qfile.ErrTooLarge,
}

// walk reads data the way both decoders do and checks what holds for any
// input: a failure is one of the six sentinels, Offset only moves
// forward and stays inside the data, and the bytes it has passed are
// exactly what AppendHeader and AppendRecord frame from the values the
// Reader handed out — the writer and the walker are inverses. It returns
// the offsets at which the header and each intact record end, and the
// error that stopped the walk (nil at a clean end of file).
func walk(t testing.TB, c container, data []byte) (bounds []int, err error) {
	t.Helper()
	fail := func(err error) ([]int, error) {
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return bounds, err
			}
		}
		t.Fatalf("%s: error outside the sentinels: %v", c.name, err)
		return nil, nil
	}
	rd, err := qfile.Open(data, c.magic, c.version)
	if err != nil {
		return fail(err)
	}
	reframed := qfile.AppendHeader(nil, c.magic, c.version, rd.WorldSeed, rd.ProtoVer, rd.MapJSON)
	for prev := 0; ; prev = rd.Offset() {
		if off := rd.Offset(); off != len(reframed) || off > len(data) || !bytes.Equal(reframed[prev:], data[prev:off]) {
			t.Fatalf("%s: Offset %d is not the end of the %d re-framed bytes", c.name, off, len(reframed))
		}
		bounds = append(bounds, rd.Offset())
		if !rd.More() {
			return bounds, nil
		}
		kind, payload, err := rd.Next()
		if err != nil {
			if rd.Offset() != len(reframed) {
				t.Fatalf("%s: a failed Next moved Offset to %d", c.name, rd.Offset())
			}
			return fail(err)
		}
		if reframed, err = qfile.AppendRecord(reframed, kind, payload); err != nil {
			t.Fatalf("%s: re-framing a record the reader yielded: %v", c.name, err)
		}
	}
}

// TestReaderDamage is the container's corruption table, run over both
// real files: whatever is done to the bytes, the reader does not panic,
// fails only with a sentinel, and never reports an intact prefix that
// reaches into the damage.
func TestReaderDamage(t *testing.T) {
	for _, c := range containers(t) {
		intact, err := walk(t, c, c.data)
		if err != nil || intact[len(intact)-1] != len(c.data) || len(intact) < 4 {
			t.Fatalf("%s: pristine file walks to %v of %d bytes: %v", c.name, intact, len(c.data), err)
		}
		// boundaryAt is the last intact boundary at or before pos.
		boundaryAt := func(pos int) int {
			b := 0
			for _, end := range intact {
				if end <= pos {
					b = end
				}
			}
			return b
		}
		damage := []struct {
			name string
			run  func(t *testing.T)
		}{
			{"truncate at every offset", func(t *testing.T) {
				for cut := 0; cut < len(c.data); cut++ {
					bounds, err := walk(t, c, c.data[:cut])
					want := boundaryAt(cut)
					switch {
					case cut < intact[0]:
						if !errors.Is(err, qfile.ErrTruncated) || len(bounds) != 0 {
							t.Fatalf("cut %d inside the header: %v", cut, err)
						}
					case bounds[len(bounds)-1] != want:
						t.Fatalf("cut %d: intact prefix ends at %d, want %d", cut, bounds[len(bounds)-1], want)
					case (err == nil) != (cut == want) || (err != nil && !errors.Is(err, qfile.ErrTruncated)):
						t.Fatalf("cut %d (boundary %d): %v", cut, want, err)
					}
				}
			}},
			{"flip every bit of the header and first two records", func(t *testing.T) {
				missed, flips := 0, 0
				mut := bytes.Clone(c.data)
				for pos := 0; pos < intact[2]; pos++ {
					for bit := 0; bit < 8; bit++ {
						mut[pos] ^= 1 << bit
						bounds, err := walk(t, c, mut)
						mut[pos] ^= 1 << bit
						flips++
						reached := 0
						if len(bounds) > 0 {
							reached = bounds[len(bounds)-1]
						}
						switch {
						case err == nil || reached > boundaryAt(pos):
							missed++ // the 16-bit sum collided; walk still held its invariants
						case reached != boundaryAt(pos) && pos >= intact[0]:
							t.Fatalf("flip at %d.%d stopped the walk early, at %d", pos, bit, reached)
						}
					}
				}
				// A 16-bit fold passes one flip in 65536; far more than
				// that means a byte the sums do not cover.
				if missed*1024 > flips {
					t.Fatalf("%d of %d single-bit flips went undetected", missed, flips)
				}
			}},
			{"junk after the last record", func(t *testing.T) {
				for _, junk := range [][]byte{
					{0x07},                         // short of a record header
					{0x07, 0xff, 0xff, 1, 2, 3},    // claims more payload than the file holds
					{0x07, 0x01, 0x00, 0xaa, 0, 0}, // whole record, wrong sum
					bytes.Repeat([]byte{0}, 64),    // zero fill, as a preallocated tail reads
				} {
					bounds, err := walk(t, c, append(bytes.Clone(c.data), junk...))
					if err == nil || bounds[len(bounds)-1] != len(c.data) {
						t.Fatalf("junk % x: intact prefix %d of %d, err %v", junk, bounds[len(bounds)-1], len(c.data), err)
					}
				}
			}},
		}
		for _, d := range damage {
			t.Run(c.name+"/"+d.name, d.run)
		}
	}
}

// TestOpenRejectsTheOtherFormat: each format's magic and version gate
// the other's files out before any record is read.
func TestOpenRejectsTheOtherFormat(t *testing.T) {
	cs := containers(t)
	if _, err := qfile.Open(cs[0].data, cs[1].magic, cs[1].version); !errors.Is(err, qfile.ErrBadMagic) {
		t.Fatalf("a .qrl opened as a .qck: %v", err)
	}
	if _, err := qfile.Open(cs[1].data, cs[1].magic, cs[1].version+1); !errors.Is(err, qfile.ErrBadVersion) {
		t.Fatalf("a version-%d file opened as version %d: %v", cs[1].version, cs[1].version+1, err)
	}
}

// TestAppendRecordBounds: the u16 length field is the payload bound, and
// an over-size payload leaves the buffer as it was.
func TestAppendRecordBounds(t *testing.T) {
	dst := []byte("prefix")
	out, err := qfile.AppendRecord(dst, 1, make([]byte, qfile.MaxPayload+1))
	if !errors.Is(err, qfile.ErrTooLarge) || !bytes.Equal(out, dst) {
		t.Fatalf("over-size payload: %d bytes out, err %v", len(out), err)
	}
	if out, err = qfile.AppendRecord(dst, 1, make([]byte, qfile.MaxPayload)); err != nil || len(out) != len(dst)+3+qfile.MaxPayload+2 {
		t.Fatalf("largest payload: %d bytes out, err %v", len(out), err)
	}
}

// FuzzReader throws arbitrary bytes at the walker under both formats'
// (magic, version); walk's invariants are the contract. The seeds are
// the ones the two format fuzzers (FuzzDecodeLog, FuzzDecodeCheckpoint)
// start from, taken from both real files.
func FuzzReader(f *testing.F) {
	cs := containers(f)
	for _, c := range cs {
		f.Add(c.data)
		f.Add(c.data[:len(c.data)/2])  // truncated mid-stream
		f.Add(c.data[:7])              // truncated header
		f.Add([]byte(c.magic))         // magic only
		f.Add(bytes.Repeat(c.data, 2)) // a second file after the last record
		corrupt := bytes.Clone(c.data)
		corrupt[len(corrupt)/2] ^= 0x40 // flipped bit mid-file
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range cs {
			walk(t, c, data)
		}
	})
}

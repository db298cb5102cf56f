package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

// tapScript drives one fixed sequence of recorder taps.
func tapScript(r *Recorder) {
	r.RecordConnect(0, 1, 0, "alice")
	r.RecordConnect(1, 2, 1, "bob")
	for f := uint64(1); f <= 12; f++ {
		r.RecordTick(16_000_000)
		cmd := protocol.MoveCmd{Forward: 200, Yaw: int16(f * 100), Msec: 16}
		r.RecordMove(0, uint32(f), &cmd)
		cmd.Side = int16(f)
		r.RecordMove(1, uint32(f), &cmd)
		if f == 4 {
			r.RecordMigrate(1, 0)
		}
		if f == 6 {
			r.RecordShed(1)
			r.RecordShed(1) // duplicate level: must not be logged twice
		}
		r.RecordFrameEnd(f)
	}
	r.RecordDisconnect(1, 2)
	r.RecordFrameEnd(13)
}

// TestStreamRecorderMatchesRecorder drives identical taps through a
// Recorder with and without the file sink and requires the `.qrl` file
// to decode to exactly Finish()'s items — the sink is the same stream,
// not a second format — with the tap counters agreeing although the
// sink drops flushed items from memory.
func TestStreamRecorderMatchesRecorder(t *testing.T) {
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewRecorder(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.qrl")
	st, err := NewStreamRecorder(path, m, 9)
	if err != nil {
		t.Fatal(err)
	}
	tapScript(mem)
	tapScript(st)
	if mem.Items() != st.Items() || mem.TickCount() != st.TickCount() {
		t.Fatalf("tap counters diverge: %d/%d items, %d/%d ticks",
			mem.Items(), st.Items(), mem.TickCount(), st.TickCount())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	lg, dropped, err := ReadPrefixFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("clean close left %d dangling bytes", dropped)
	}
	memLog := mem.Finish(nil)
	if !reflect.DeepEqual(lg.Items, memLog.Items) {
		t.Fatalf("streams diverge: %d vs %d items", len(lg.Items), len(memLog.Items))
	}
	if lg.WorldSeed != 9 || lg.HasEnd {
		t.Fatalf("stream log header wrong: seed %d, hasEnd %v", lg.WorldSeed, lg.HasEnd)
	}
}

// TestDecodePrefixTorn cuts a streamed log at every byte offset past the
// header — the kill -9 cases — and requires DecodePrefix to return an
// item-aligned prefix of the original stream, never an error, a panic,
// or items that were not in the log.
func TestDecodePrefixTorn(t *testing.T) {
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.qrl")
	st, err := NewStreamRecorder(path, m, 9)
	if err != nil {
		t.Fatal(err)
	}
	tapScript(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, dropped, err := DecodePrefix(data)
	if err != nil || dropped != 0 {
		t.Fatalf("full decode: %v (%d dropped)", err, dropped)
	}

	headerEnd := len(data) - streamBodyLen(t, data, len(full.Items))
	stride := 1
	if len(data)-headerEnd > 8192 {
		stride = 13
	}
	prevItems := 0
	for cut := headerEnd; cut <= len(data); cut += stride {
		lg, drop, err := DecodePrefix(data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if drop != cut-alignedEnd(data, headerEnd, cut) {
			t.Fatalf("cut at %d: dropped %d bytes, expected %d", cut, drop, cut-alignedEnd(data, headerEnd, cut))
		}
		if len(lg.Items) < prevItems {
			t.Fatalf("cut at %d: prefix shrank from %d to %d items", cut, prevItems, len(lg.Items))
		}
		prevItems = len(lg.Items)
		if len(lg.Items) > 0 && !reflect.DeepEqual(lg.Items, full.Items[:len(lg.Items)]) {
			t.Fatalf("cut at %d: prefix is not a prefix", cut)
		}
	}
	if prevItems != len(full.Items) {
		t.Fatalf("full-length cut lost items: %d vs %d", prevItems, len(full.Items))
	}

	// Garbage appended past a valid stream is dropped, not decoded.
	garbage := append(append([]byte(nil), data...), 0xDE, 0xAD, 0xBE)
	lg, drop, err := DecodePrefix(garbage)
	if err != nil {
		t.Fatal(err)
	}
	if drop != 3 || len(lg.Items) != len(full.Items) {
		t.Fatalf("garbage tail: dropped %d, %d items", drop, len(lg.Items))
	}
}

// streamBodyLen computes the record-body byte length by re-walking the
// frame structure (header length is data-dependent via the embedded
// map).
func streamBodyLen(t *testing.T, data []byte, _ int) int {
	t.Helper()
	pos := 6
	hlen := int(uint32(data[pos]) | uint32(data[pos+1])<<8 | uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24)
	return len(data) - (pos + 4 + hlen + 2)
}

// alignedEnd returns the largest record-aligned offset ≤ cut.
func alignedEnd(data []byte, headerEnd, cut int) int {
	p := headerEnd
	for p < cut {
		if cut-p < 3 {
			return p
		}
		plen := int(uint16(data[p+1]) | uint16(data[p+2])<<8)
		if cut-p < 3+plen+2 {
			return p
		}
		p += 3 + plen + 2
	}
	return p
}

// TestStreamRecorderSurvivesTornTail is the end-to-end shape of the
// crash: append garbage (a torn in-flight frame) to a streamed log and
// check reading it back still yields every flushed frame.
func TestStreamRecorderSurvivesTornTail(t *testing.T) {
	m, err := worldmap.GenerateArena(worldmap.DefaultArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.qrl")
	st, err := NewStreamRecorder(path, m, 9)
	if err != nil {
		t.Fatal(err)
	}
	tapScript(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0x5A}, 17)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	lg, dropped, err := ReadPrefixFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("the torn tail was not detected")
	}
	if len(lg.Items) == 0 {
		t.Fatal("flushed frames were lost")
	}
}

package protocol

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qserve/internal/geom"
)

func TestWriterReaderPrimitives(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.U16(0x1234)
	w.U32(0xDEADBEEF)
	w.U64(0x0102030405060708)
	w.I16(-42)
	w.I32(-100000)
	w.F32(3.5)
	w.String("hello")

	r := NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U16() != 0x1234 || r.U32() != 0xDEADBEEF ||
		r.U64() != 0x0102030405060708 || r.I16() != -42 || r.I32() != -100000 {
		t.Fatal("primitive round trip failed")
	}
	if r.F32() != 3.5 {
		t.Error("float round trip failed")
	}
	if r.String() != "hello" {
		t.Error("string round trip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestReaderTruncation(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U32()
	if r.Err() != ErrTruncated {
		t.Errorf("err = %v", r.Err())
	}
	// Subsequent reads keep returning zeros without panicking.
	if r.U64() != 0 || r.String() != "" {
		t.Error("post-error reads returned data")
	}
}

func TestWriterStringTruncation(t *testing.T) {
	var w Writer
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	w.String(string(long))
	r := NewReader(w.Bytes())
	if got := r.String(); len(got) != 255 {
		t.Errorf("string length = %d, want 255", len(got))
	}
}

func TestAngleWireRoundTrip(t *testing.T) {
	for deg := 0.0; deg < 360; deg += 0.25 {
		w := AngleToWire(deg)
		back := WireToAngle(w)
		diff := math.Abs(geom.AngleDelta(deg, back))
		if diff > 360.0/65536+1e-9 {
			t.Fatalf("angle %v -> %v, diff %v", deg, back, diff)
		}
	}
}

func TestCoordQuantization(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 100.125, -2047.875, 2000.0625} {
		q := QuantizeCoord(v)
		back := DequantizeCoord(q)
		if math.Abs(back-v) > 1.0/CoordScale {
			t.Errorf("coord %v -> %v", v, back)
		}
	}
	if QuantizeCoord(1e9) != 32767 || QuantizeCoord(-1e9) != -32768 {
		t.Error("quantization does not saturate")
	}
}

func TestMoveCmdViewAngles(t *testing.T) {
	c := MoveCmd{Pitch: AngleToWire(-30), Yaw: AngleToWire(135)}
	a := c.ViewAngles()
	if math.Abs(a.X-(-30)) > 0.01 || math.Abs(a.Y-135) > 0.01 {
		t.Errorf("ViewAngles = %v", a)
	}
}

func encodeDecode(t *testing.T, msg any) any {
	t.Helper()
	var w Writer
	if err := Encode(&w, msg); err != nil {
		t.Fatalf("Encode(%T): %v", msg, err)
	}
	got, err := Decode(w.Bytes())
	if err != nil {
		t.Fatalf("Decode(%T): %v", msg, err)
	}
	return got
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []any{
		&Connect{Name: "bot-7", FrameMs: 33, ProtocolVer: 1},
		&Move{Seq: 12345, Ack: 999, Cmd: MoveCmd{
			Pitch: -100, Yaw: 5000, Forward: 320, Side: -100, Up: 25,
			Buttons: BtnFire | BtnJump, Impulse: 3, Msec: 33,
		}},
		&Disconnect{},
		&Ping{Nonce: 0xCAFEBABE12345678},
		&Accept{ClientID: 17, EntityID: 42, MapName: "gen-dm36", Addr: "127.0.0.1:27501"},
		&Reject{Reason: "server full"},
		&Disconnected{Reason: "timeout"},
		&Pong{Nonce: 77},
		&Snapshot{
			Frame: 100, AckSeq: 12345, ServerTime: 65000,
			You: PlayerState{
				Origin:   geom.V(100.125, -20.5, 48),
				Velocity: geom.V(320, 0, -100),
				Health:   75, Armor: 50, Ammo: 23, Weapon: 2, Frags: 7,
				Flags: PFOnGround,
			},
			Delta: []EntityDelta{
				{ID: 3, Bits: DNew, State: EntityState{ID: 3, Class: 1, X: 800, Y: 1600, Z: 200, Yaw: 128, Frame: 2, Effects: 1}},
				{ID: 5, Bits: DOrigin | DYaw, State: EntityState{ID: 5, X: 80, Y: 160, Z: 20, Yaw: 64}},
				{ID: 9, Bits: DRemove},
			},
		},
	}
	for _, msg := range msgs {
		got := encodeDecode(t, msg)
		if !reflect.DeepEqual(normalizeMsg(got), normalizeMsg(msg)) {
			t.Errorf("round trip %T:\n got  %+v\n want %+v", msg, got, msg)
		}
	}
}

// normalizeMsg re-quantizes float fields so DeepEqual compares wire
// precision, not raw floats.
func normalizeMsg(m any) any {
	if s, ok := m.(*Snapshot); ok {
		c := *s
		c.You.Origin = DequantizeVec(QuantizeVec(s.You.Origin))
		c.You.Velocity = DequantizeVec(QuantizeVec(s.You.Velocity))
		// Delta states for non-new entries only carry the flagged fields;
		// zero the rest for comparison.
		for i := range c.Delta {
			d := &c.Delta[i]
			if d.Bits&(DRemove) != 0 {
				d.State = EntityState{ID: d.ID}
				continue
			}
			if d.Bits&DNew != 0 {
				continue
			}
			masked := EntityState{ID: d.ID}
			if d.Bits&DOrigin != 0 {
				masked.X, masked.Y, masked.Z = d.State.X, d.State.Y, d.State.Z
			}
			if d.Bits&DYaw != 0 {
				masked.Yaw = d.State.Yaw
			}
			if d.Bits&DFrame != 0 {
				masked.Frame = d.State.Frame
			}
			if d.Bits&DEffects != 0 {
				masked.Effects = d.State.Effects
			}
			if d.Bits&DClass != 0 {
				masked.Class = d.State.Class
			}
			d.State = masked
		}
		return &c
	}
	return m
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1},
		{Magic},
		{Magic, Version},               // missing type
		{Magic, Version, 200},          // unknown type
		{0x00, Version, uint8(TPing)},  // bad magic
		{Magic, 99, uint8(TPing)},      // bad version
		{Magic, Version, uint8(TMove)}, // truncated move
		{Magic, Version, uint8(TSnapshot), 1, 2},
	}
	// The raw cases above mostly die on the checksum; re-checksum them so
	// the header and body validation they target is what rejects them.
	for _, data := range cases {
		if len(data) < 3 {
			continue
		}
		var w Writer
		w.Buf = append(w.Buf[:0], data...)
		w.U16(wireSum(data))
		cases = append(cases, append([]byte(nil), w.Bytes()...))
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: garbage decoded successfully", i)
		}
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 20000; i++ {
		n := r.Intn(64)
		data := make([]byte, n)
		r.Read(data)
		if r.Intn(2) == 0 && n >= 3 {
			// Bias toward valid headers to exercise body parsing.
			data[0] = Magic
			data[1] = Version
		}
		Decode(data) // must not panic
	}
}

func TestDecodeSnapshotEntityCountLimit(t *testing.T) {
	var w Writer
	w.U8(Magic)
	w.U8(Version)
	w.U8(uint8(TSnapshot))
	w.U32(1)
	w.U32(1)
	w.U32(1)
	encodePlayerState(&w, &PlayerState{})
	w.U16(65535) // absurd entity count
	w.U16(wireSum(w.Bytes()))
	if _, err := Decode(w.Bytes()); err == nil {
		t.Error("oversized entity count accepted")
	}
}

func randomEntityState(r *rand.Rand, id uint16) EntityState {
	return EntityState{
		ID:      id,
		Class:   uint8(r.Intn(5)),
		X:       int16(r.Intn(30000) - 15000),
		Y:       int16(r.Intn(30000) - 15000),
		Z:       int16(r.Intn(3000)),
		Yaw:     uint8(r.Intn(256)),
		Frame:   uint8(r.Intn(16)),
		Effects: uint8(r.Intn(4)),
	}
}

func randomEntityList(r *rand.Rand) []EntityState {
	n := r.Intn(40)
	var out []EntityState
	id := uint16(1)
	for i := 0; i < n; i++ {
		id += uint16(1 + r.Intn(5))
		out = append(out, randomEntityState(r, id))
	}
	return out
}

// TestDeltaRoundTripProperty: ApplyDelta(prev, DeltaEntities(prev, cur))
// must reconstruct cur exactly, for random list pairs including entity
// appearance, disappearance, and field churn.
func TestDeltaRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		prev := randomEntityList(r)
		// Derive cur from prev: mutate some, drop some, add some.
		var cur []EntityState
		for _, s := range prev {
			switch r.Intn(4) {
			case 0: // drop
			case 1: // mutate
				m := s
				m.X += int16(r.Intn(100) - 50)
				m.Frame = uint8(r.Intn(16))
				cur = append(cur, m)
			default: // keep
				cur = append(cur, s)
			}
		}
		maxID := uint16(1)
		if len(prev) > 0 {
			maxID = prev[len(prev)-1].ID + 1
		}
		for i := 0; i < r.Intn(5); i++ {
			cur = append(cur, randomEntityState(r, maxID+uint16(i*3)))
		}

		deltas := DeltaEntities(prev, cur)
		got, err := ApplyDelta(prev, deltas)
		if err != nil {
			t.Fatalf("trial %d: ApplyDelta: %v", trial, err)
		}
		if !reflect.DeepEqual(got, cur) && !(len(got) == 0 && len(cur) == 0) {
			t.Fatalf("trial %d:\nprev %v\ncur  %v\ngot  %v\ndelta %v", trial, prev, cur, got, deltas)
		}

		// And the wire round trip of the deltas themselves.
		var w Writer
		encodeDeltas(&w, deltas)
		back, err := decodeDeltas(NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: decodeDeltas: %v", trial, err)
		}
		got2, err := ApplyDelta(prev, back)
		if err != nil {
			t.Fatalf("trial %d: ApplyDelta(wire): %v", trial, err)
		}
		if !reflect.DeepEqual(got2, got) {
			t.Fatalf("trial %d: wire round trip diverged", trial)
		}
	}
}

func TestDeltaUnchangedIsEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	list := randomEntityList(r)
	if d := DeltaEntities(list, list); len(d) != 0 {
		t.Errorf("identical lists produced %d deltas", len(d))
	}
}

func TestApplyDeltaUnknownEntity(t *testing.T) {
	deltas := []EntityDelta{{ID: 99, Bits: DOrigin}}
	if _, err := ApplyDelta(nil, deltas); err == nil {
		t.Error("delta against unknown entity accepted")
	}
}

func TestEntityStateHelpers(t *testing.T) {
	var s EntityState
	s.SetOrigin(geom.V(100.125, -32.5, 48))
	if got := s.Origin(); !got.NearEq(geom.V(100.125, -32.5, 48), 1.0/CoordScale) {
		t.Errorf("origin round trip = %v", got)
	}
	s.SetYaw(90)
	if math.Abs(s.YawDegrees()-90) > 360.0/256 {
		t.Errorf("yaw round trip = %v", s.YawDegrees())
	}
	s.SetYaw(-45) // negative angles normalize
	if math.Abs(geom.AngleDelta(s.YawDegrees(), 315)) > 360.0/256 {
		t.Errorf("negative yaw = %v", s.YawDegrees())
	}
}

func TestEncodeUnknownType(t *testing.T) {
	var w Writer
	if err := Encode(&w, struct{}{}); err == nil {
		t.Error("unknown message type encoded")
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.U32(42)
	w.Reset()
	if len(w.Bytes()) != 0 {
		t.Error("reset did not clear")
	}
	w.U8(1)
	if len(w.Bytes()) != 1 {
		t.Error("writer unusable after reset")
	}
}

func BenchmarkEncodeSnapshot(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	prev := randomEntityList(r)
	cur := append([]EntityState(nil), prev...)
	for i := range cur {
		cur[i].X += 8
	}
	snap := &Snapshot{Frame: 1, Delta: DeltaEntities(prev, cur)}
	var w Writer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		Encode(&w, snap)
	}
}

func BenchmarkDecodeSnapshot(b *testing.B) {
	r := rand.New(rand.NewSource(23))
	prev := randomEntityList(r)
	cur := append([]EntityState(nil), prev...)
	for i := range cur {
		cur[i].X += 8
	}
	snap := &Snapshot{Frame: 1, Delta: DeltaEntities(prev, cur)}
	var w Writer
	Encode(&w, snap)
	data := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

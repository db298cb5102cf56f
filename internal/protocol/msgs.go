package protocol

import (
	"encoding/binary"
	"fmt"

	"qserve/internal/geom"
)

// MsgType tags each datagram.
type MsgType uint8

// Message types. Client→server types are low, server→client high.
const (
	TConnect    MsgType = 1 // client: join the game
	TMove       MsgType = 2 // client: move command (the gameplay request)
	TDisconnect MsgType = 3 // client: leave
	TPing       MsgType = 4 // client: latency probe

	TAccept       MsgType = 64 // server: connection accepted
	TSnapshot     MsgType = 65 // server: world update reply
	TDisconnected MsgType = 66 // server: connection closed
	TPong         MsgType = 67 // server: latency probe reply
	TReject       MsgType = 68 // server: connection refused
)

// Button bits in MoveCmd.Buttons.
const (
	BtnFire uint8 = 1 << iota
	BtnJump
	BtnUse
)

// MoveCmd is the wire form of the paper's move request (§2.3): view
// angles, motion indicators, action flags, and the duration "the command
// is to be applied in milliseconds" (~30ms for 30fps clients).
//
//qvet:wire=wire3
//qvet:wire=qrpl
type MoveCmd struct {
	Pitch   int16 // view pitch, 16-bit angle units (65536 per turn)
	Yaw     int16 // view yaw
	Forward int16 // forward speed indicator, units/s
	Side    int16 // sideways speed indicator
	Up      int16 // vertical speed indicator
	Buttons uint8
	Impulse uint8 // weapon selection / item switch
	Msec    uint8 // duration to apply, ms
}

// AngleToWire quantizes a degree angle to 16-bit wire units.
func AngleToWire(deg float64) int16 {
	return int16(int32(deg*65536/360) & 0xFFFF)
}

// WireToAngle expands a wire angle back to degrees in [0, 360).
func WireToAngle(w int16) float64 {
	return geom.NormalizeAngle(float64(uint16(w)) * 360 / 65536)
}

// ViewAngles converts the command's wire angles to a geom angle vector.
func (c *MoveCmd) ViewAngles() geom.Vec3 {
	pitch := WireToAngle(c.Pitch)
	if pitch > 180 {
		pitch -= 360
	}
	return geom.V(pitch, WireToAngle(c.Yaw), 0)
}

// CoordScale is the fixed-point scale for entity coordinates: 1/8 unit
// resolution in an int16, the engine's 13.3 format.
const CoordScale = 8

// QuantizeCoord converts a world coordinate to wire fixed point,
// saturating at the int16 range.
func QuantizeCoord(v float64) int16 {
	q := v * CoordScale
	if q > 32767 {
		return 32767
	}
	if q < -32768 {
		return -32768
	}
	return int16(q)
}

// DequantizeCoord converts wire fixed point back to a world coordinate.
func DequantizeCoord(q int16) float64 { return float64(q) / CoordScale }

// QuantizeVec quantizes all three components.
func QuantizeVec(v geom.Vec3) (x, y, z int16) {
	return QuantizeCoord(v.X), QuantizeCoord(v.Y), QuantizeCoord(v.Z)
}

// DequantizeVec expands three wire coordinates.
func DequantizeVec(x, y, z int16) geom.Vec3 {
	return geom.V(DequantizeCoord(x), DequantizeCoord(y), DequantizeCoord(z))
}

// Connect is the session-join request.
//
//qvet:wire=wire3
type Connect struct {
	Name        string
	FrameMs     uint8 // client frame duration (30-40ms per the paper)
	ProtocolVer uint8
	// Match names the instance the client wants to join when the server
	// runs a match manager (DESIGN.md §13). Empty means "assign me": the
	// lobby picks a match. Single-match servers ignore it.
	Match string
}

// Move wraps a MoveCmd with sequencing.
//
//qvet:wire=wire3
type Move struct {
	Seq uint32 // client's request sequence number
	Ack uint32 // latest server frame the client has seen
	Cmd MoveCmd
}

// Disconnect is the session-leave notice.
type Disconnect struct{}

// Ping is a latency probe.
//
//qvet:wire=wire3
type Ping struct{ Nonce uint64 }

// Accept confirms a connection.
//
//qvet:wire=wire3
type Accept struct {
	ClientID uint16
	EntityID int32
	MapName  string
	// Addr tells the client which endpoint its owning server thread
	// listens on: "a server appears to clients as one IP address and a
	// range of UDP ports" (§3.1). Clients send all subsequent messages
	// there.
	Addr string
}

// Reject refuses a connection.
//
//qvet:wire=wire3
type Reject struct{ Reason string }

// PlayerState is the client's own authoritative state in a snapshot.
//
//qvet:wire=wire3
type PlayerState struct {
	Origin   geom.Vec3
	Velocity geom.Vec3
	Health   int16
	Armor    int16
	Ammo     int16
	Weapon   uint8
	Frags    int16
	Flags    uint8
}

// PlayerState flags.
const (
	PFOnGround uint8 = 1 << iota
	PFDead
	PFPowerup
)

// GameEvent is a broadcast game occurrence (kill, pickup, teleport)
// delivered to every client from the server's global state buffer.
//
//qvet:wire=wire3
type GameEvent struct {
	Kind    uint8
	Actor   uint16
	Subject uint16
	X, Y, Z int16 // quantized location, when meaningful
}

// maxSnapshotEvents bounds the per-snapshot event list so a snapshot
// with a full visible-entity set still fits one MaxDatagram-sized UDP
// payload; excess events are dropped oldest-first by the encoder, as the
// original engine drops unreliable datagram content under pressure.
const maxSnapshotEvents = 64

// Snapshot is the server's reply to a move request: the client's own
// state, delta-encoded visible entities, and the frame's broadcast
// events.
//
//qvet:wire=wire3
type Snapshot struct {
	Frame  uint32 // server frame number
	AckSeq uint32 // client request sequence this replies to
	// BaseFrame tags the baseline Delta is relative to: Frame+1 of the
	// snapshot that established it, or 0 when there is no baseline (the
	// delta carries full entity state and the client must reset its
	// table before applying). A client whose own table tag differs from
	// BaseFrame has missed a snapshot — applying the delta would corrupt
	// its table silently — and must discard it and request a resync.
	BaseFrame  uint32
	ServerTime uint32 // server clock, ms
	You        PlayerState
	Delta      []EntityDelta
	Events     []GameEvent
}

// Disconnected closes a session from the server side.
//
//qvet:wire=wire3
type Disconnected struct{ Reason string }

// Pong answers a Ping.
//
//qvet:wire=wire3
type Pong struct{ Nonce uint64 }

// wireSum is the 16-bit datagram checksum: FNV-1a folded to 16 bits.
// It detects every single-bit flip and all but ~1/65536 of multi-bit
// corruption, and costs one pass over the datagram with no allocation.
func wireSum(data []byte) uint16 {
	h := uint32(2166136261)
	for _, b := range data {
		h ^= uint32(b)
		h *= 16777619
	}
	return uint16(h ^ h>>16)
}

// Fold16 exposes the wire checksum fold to the durable file container
// (internal/qfile), whose header and per-record sums reuse it so the
// wire and the files share one corruption model.
func Fold16(data []byte) uint16 { return wireSum(data) }

// Encode serializes any message type into w, including the datagram
// header and the trailing checksum.
//
//qvet:wire=wire3 encode
func Encode(w *Writer, msg any) error {
	start := len(w.Buf)
	w.U8(Magic)
	w.U8(Version)
	switch m := msg.(type) {
	case *Connect:
		w.U8(uint8(TConnect))
		w.String(m.Name)
		w.U8(m.FrameMs)
		w.U8(m.ProtocolVer)
		w.String(m.Match)
	case *Move:
		w.U8(uint8(TMove))
		w.U32(m.Seq)
		w.U32(m.Ack)
		EncodeMoveCmd(w, &m.Cmd)
	case *Disconnect:
		w.U8(uint8(TDisconnect))
	case *Ping:
		w.U8(uint8(TPing))
		w.U64(m.Nonce)
	case *Accept:
		w.U8(uint8(TAccept))
		w.U16(m.ClientID)
		w.I32(m.EntityID)
		w.String(m.MapName)
		w.String(m.Addr)
	case *Reject:
		w.U8(uint8(TReject))
		w.String(m.Reason)
	case *Snapshot:
		w.U8(uint8(TSnapshot))
		w.U32(m.Frame)
		w.U32(m.AckSeq)
		w.U32(m.BaseFrame)
		w.U32(m.ServerTime)
		encodePlayerState(w, &m.You)
		encodeDeltas(w, m.Delta)
		encodeEvents(w, m.Events)
	case *Disconnected:
		w.U8(uint8(TDisconnected))
		w.String(m.Reason)
	case *Pong:
		w.U8(uint8(TPong))
		w.U64(m.Nonce)
	default:
		return fmt.Errorf("protocol: cannot encode %T", msg)
	}
	w.U16(wireSum(w.Buf[start:]))
	return nil
}

// Decode parses a datagram into one of the message structs above. The
// checksum trailer is verified first: a mismatch means the datagram was
// corrupted in flight, and parsing it could yield a structurally valid
// message carrying garbage (a wild Move sequence, a forged Disconnect,
// a Snapshot whose delta chain looks intact) — rejected wholesale.
//
//qvet:wire=wire3 decode
func Decode(data []byte) (any, error) {
	if len(data) < 5 { // magic + version + type + checksum
		return nil, ErrTruncated
	}
	body := data[:len(data)-2]
	if binary.LittleEndian.Uint16(data[len(data)-2:]) != wireSum(body) {
		return nil, ErrChecksum
	}
	r := NewReader(body)
	if r.U8() != Magic || r.U8() != Version {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, ErrBadMagic
	}
	t := MsgType(r.U8())
	var msg any
	switch t {
	case TConnect:
		m := &Connect{}
		m.Name = r.String()
		m.FrameMs = r.U8()
		m.ProtocolVer = r.U8()
		m.Match = r.String()
		msg = m
	case TMove:
		m := &Move{}
		m.Seq = r.U32()
		m.Ack = r.U32()
		DecodeMoveCmd(r, &m.Cmd)
		msg = m
	case TDisconnect:
		msg = &Disconnect{}
	case TPing:
		msg = &Ping{Nonce: r.U64()}
	case TAccept:
		m := &Accept{}
		m.ClientID = r.U16()
		m.EntityID = r.I32()
		m.MapName = r.String()
		m.Addr = r.String()
		msg = m
	case TReject:
		msg = &Reject{Reason: r.String()}
	case TSnapshot:
		m := &Snapshot{}
		m.Frame = r.U32()
		m.AckSeq = r.U32()
		m.BaseFrame = r.U32()
		m.ServerTime = r.U32()
		decodePlayerState(r, &m.You)
		var err error
		m.Delta, err = decodeDeltas(r)
		if err != nil {
			return nil, err
		}
		m.Events = decodeEvents(r)
		msg = m
	case TDisconnected:
		msg = &Disconnected{Reason: r.String()}
	case TPong:
		msg = &Pong{Nonce: r.U64()}
	default:
		return nil, fmt.Errorf("protocol: unknown message type %d", t)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if r.Remaining() > 0 {
		// Strict framing: a datagram is exactly one message. Trailing
		// bytes mean corruption (e.g. a bit-flipped count shrank the
		// parsed region) — reject rather than half-accept.
		return nil, ErrTrailing
	}
	return msg, nil
}

// EncodeMoveCmd appends the 13-byte MoveCmd image: the body of a Move
// datagram and of a replay-log move record (internal/replay), which
// stores commands through this codec so the two cannot drift.
func EncodeMoveCmd(w *Writer, c *MoveCmd) {
	w.I16(c.Pitch)
	w.I16(c.Yaw)
	w.I16(c.Forward)
	w.I16(c.Side)
	w.I16(c.Up)
	w.U8(c.Buttons)
	w.U8(c.Impulse)
	w.U8(c.Msec)
}

// DecodeMoveCmd is the inverse of EncodeMoveCmd.
func DecodeMoveCmd(r *Reader, c *MoveCmd) {
	c.Pitch = r.I16()
	c.Yaw = r.I16()
	c.Forward = r.I16()
	c.Side = r.I16()
	c.Up = r.I16()
	c.Buttons = r.U8()
	c.Impulse = r.U8()
	c.Msec = r.U8()
}

func encodeEvents(w *Writer, events []GameEvent) {
	if len(events) > maxSnapshotEvents {
		events = events[len(events)-maxSnapshotEvents:]
	}
	w.U8(uint8(len(events)))
	for _, e := range events {
		w.U8(e.Kind)
		w.U16(e.Actor)
		w.U16(e.Subject)
		w.I16(e.X)
		w.I16(e.Y)
		w.I16(e.Z)
	}
}

func decodeEvents(r *Reader) []GameEvent {
	n := int(r.U8())
	if n == 0 {
		return nil
	}
	out := make([]GameEvent, 0, n)
	for i := 0; i < n; i++ {
		var e GameEvent
		e.Kind = r.U8()
		e.Actor = r.U16()
		e.Subject = r.U16()
		e.X = r.I16()
		e.Y = r.I16()
		e.Z = r.I16()
		if r.Err() != nil {
			return nil
		}
		out = append(out, e)
	}
	return out
}

func encodePlayerState(w *Writer, p *PlayerState) {
	x, y, z := QuantizeVec(p.Origin)
	w.I16(x)
	w.I16(y)
	w.I16(z)
	vx, vy, vz := QuantizeVec(p.Velocity)
	w.I16(vx)
	w.I16(vy)
	w.I16(vz)
	w.I16(p.Health)
	w.I16(p.Armor)
	w.I16(p.Ammo)
	w.U8(p.Weapon)
	w.I16(p.Frags)
	w.U8(p.Flags)
}

func decodePlayerState(r *Reader, p *PlayerState) {
	p.Origin = DequantizeVec(r.I16(), r.I16(), r.I16())
	p.Velocity = DequantizeVec(r.I16(), r.I16(), r.I16())
	p.Health = r.I16()
	p.Armor = r.I16()
	p.Ammo = r.I16()
	p.Weapon = r.U8()
	p.Frags = r.I16()
	p.Flags = r.U8()
}

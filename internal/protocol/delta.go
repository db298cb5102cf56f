package protocol

import (
	"fmt"

	"qserve/internal/geom"
)

// EntityState is the wire-visible state of one entity, quantized. States
// are compared field-wise for delta compression, so the struct must stay
// directly comparable.
type EntityState struct {
	// The id is not its own wire field: snapshots carry it once, in
	// EntityDelta.ID, and decodeDeltas copies it back in.
	ID      uint16
	Class   uint8
	X, Y, Z int16 // fixed-point origin (CoordScale)
	Yaw     uint8 // angle in 256ths of a turn
	Frame   uint8 // animation frame
	Effects uint8 // muzzle flash, powerup glow, ...
}

// Origin returns the dequantized position.
func (s *EntityState) Origin() geom.Vec3 { return DequantizeVec(s.X, s.Y, s.Z) }

// SetOrigin quantizes and stores a position.
func (s *EntityState) SetOrigin(v geom.Vec3) { s.X, s.Y, s.Z = QuantizeVec(v) }

// YawDegrees returns the dequantized yaw.
func (s *EntityState) YawDegrees() float64 { return float64(s.Yaw) * 360 / 256 }

// SetYaw quantizes and stores a yaw angle in degrees.
func (s *EntityState) SetYaw(deg float64) {
	s.Yaw = uint8(int(geom.NormalizeAngle(deg)*256/360) & 0xFF)
}

// Delta field bits.
const (
	DOrigin uint8 = 1 << iota
	DYaw
	DFrame
	DEffects
	DClass
	DRemove // entity left the client's visible set
	DNew    // entity entered the visible set: full state follows
)

// EntityDelta is one entry of a snapshot's entity list.
type EntityDelta struct {
	ID    uint16
	Bits  uint8
	State EntityState // fields valid per Bits; complete when DNew
}

// maxSnapshotEntities bounds decoder allocation against malicious
// counts.
const maxSnapshotEntities = 4096

// DeltaEntities computes the delta list transforming prev into cur. Both
// slices must be sorted by ID (as BuildSnapshot emits them); the output
// is also ID-sorted. Unchanged entities produce no entry — the bandwidth
// saving that lets "a single 100 MBit Ethernet interface support large
// numbers of players".
func DeltaEntities(prev, cur []EntityState) []EntityDelta {
	return AppendDeltaEntities(nil, prev, cur)
}

// AppendDeltaEntities is DeltaEntities appending into dst, so reply
// pipelines can reuse one delta buffer across clients and frames instead
// of allocating per call. dst may be nil; cur and prev must not alias
// dst's backing array.
func AppendDeltaEntities(dst []EntityDelta, prev, cur []EntityState) []EntityDelta {
	out := dst
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		switch {
		case j >= len(cur) || (i < len(prev) && prev[i].ID < cur[j].ID):
			out = append(out, EntityDelta{ID: prev[i].ID, Bits: DRemove})
			i++
		case i >= len(prev) || cur[j].ID < prev[i].ID:
			out = append(out, EntityDelta{ID: cur[j].ID, Bits: DNew, State: cur[j]})
			j++
		default:
			p, c := prev[i], cur[j]
			var bits uint8
			if p.X != c.X || p.Y != c.Y || p.Z != c.Z {
				bits |= DOrigin
			}
			if p.Yaw != c.Yaw {
				bits |= DYaw
			}
			if p.Frame != c.Frame {
				bits |= DFrame
			}
			if p.Effects != c.Effects {
				bits |= DEffects
			}
			if p.Class != c.Class {
				bits |= DClass
			}
			if bits != 0 {
				out = append(out, EntityDelta{ID: c.ID, Bits: bits, State: c})
			}
			i++
			j++
		}
	}
	return out
}

// ApplyDelta reconstructs the new entity list from the previous one and a
// delta list. prev must be strictly ID-ascending, as ApplyDelta and
// BuildSnapshot emit it; so must deltas, as DeltaEntities emits them, or
// ApplyDelta returns an error. The result is ID-ascending, newly
// allocated, and built in one merge of the two lists.
func ApplyDelta(prev []EntityState, deltas []EntityDelta) ([]EntityState, error) {
	out := make([]EntityState, 0, len(prev)+len(deltas))
	i := 0
	for k, d := range deltas {
		if k > 0 && d.ID <= deltas[k-1].ID {
			return nil, fmt.Errorf("protocol: delta for entity %d follows entity %d", d.ID, deltas[k-1].ID)
		}
		for i < len(prev) && prev[i].ID < d.ID {
			out = append(out, prev[i])
			i++
		}
		s, known := EntityState{}, i < len(prev) && prev[i].ID == d.ID
		if known {
			s = prev[i]
			i++
		}
		switch {
		case d.Bits&DRemove != 0:
			continue
		case d.Bits&DNew != 0:
			s = d.State
			s.ID = d.ID
		case !known:
			return nil, fmt.Errorf("protocol: delta for unknown entity %d", d.ID)
		default:
			if d.Bits&DOrigin != 0 {
				s.X, s.Y, s.Z = d.State.X, d.State.Y, d.State.Z
			}
			if d.Bits&DYaw != 0 {
				s.Yaw = d.State.Yaw
			}
			if d.Bits&DFrame != 0 {
				s.Frame = d.State.Frame
			}
			if d.Bits&DEffects != 0 {
				s.Effects = d.State.Effects
			}
			if d.Bits&DClass != 0 {
				s.Class = d.State.Class
			}
		}
		out = append(out, s)
	}
	return append(out, prev[i:]...), nil
}

func encodeDeltas(w *Writer, deltas []EntityDelta) {
	w.U16(uint16(len(deltas)))
	for i := range deltas {
		d := &deltas[i]
		w.U16(d.ID)
		w.U8(d.Bits)
		if d.Bits&DRemove != 0 {
			continue
		}
		if d.Bits&(DNew|DOrigin) != 0 {
			w.I16(d.State.X)
			w.I16(d.State.Y)
			w.I16(d.State.Z)
		}
		if d.Bits&(DNew|DYaw) != 0 {
			w.U8(d.State.Yaw)
		}
		if d.Bits&(DNew|DFrame) != 0 {
			w.U8(d.State.Frame)
		}
		if d.Bits&(DNew|DEffects) != 0 {
			w.U8(d.State.Effects)
		}
		if d.Bits&(DNew|DClass) != 0 {
			w.U8(d.State.Class)
		}
	}
}

func decodeDeltas(r *Reader) ([]EntityDelta, error) {
	n := int(r.U16())
	if n > maxSnapshotEntities {
		return nil, fmt.Errorf("protocol: snapshot entity count %d exceeds limit", n)
	}
	out := make([]EntityDelta, 0, n)
	for k := 0; k < n; k++ {
		var d EntityDelta
		d.ID = r.U16()
		d.Bits = r.U8()
		d.State.ID = d.ID
		if d.Bits&DRemove == 0 {
			if d.Bits&(DNew|DOrigin) != 0 {
				d.State.X = r.I16()
				d.State.Y = r.I16()
				d.State.Z = r.I16()
			}
			if d.Bits&(DNew|DYaw) != 0 {
				d.State.Yaw = r.U8()
			}
			if d.Bits&(DNew|DFrame) != 0 {
				d.State.Frame = r.U8()
			}
			if d.Bits&(DNew|DEffects) != 0 {
				d.State.Effects = r.U8()
			}
			if d.Bits&(DNew|DClass) != 0 {
				d.State.Class = r.U8()
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		out = append(out, d)
	}
	return out, nil
}

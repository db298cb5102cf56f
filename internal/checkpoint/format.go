// Package checkpoint implements durable world state for the game server
// (DESIGN.md §12): frame-barrier checkpoints of the entity table, the
// per-client delta baselines, balance assignments and frame/seq
// counters, written through an allocation-free capture path at the reply
// barrier — where the phase discipline makes the entity table read-only —
// and flushed to an atomic-rename, checksummed on-disk format by a
// background goroutine. Incremental (delta) checkpoints carry only the
// entities that changed against the last full image, mirroring the wire
// protocol's DNew/DChange/DRemove discipline at full float64 precision.
//
// A checkpoint is the recovery line; the replay log (internal/replay) is
// the redo log: recovery cold-starts a world from the newest valid
// checkpoint and replays the `.qrl` tail recorded since it to reach the
// exact pre-crash frame (replay.Recover).
package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"

	"qserve/internal/geom"
	"qserve/internal/protocol"
	"qserve/internal/qfile"
	"qserve/internal/worldmap"
)

// A `.qck` file is an internal/qfile container (magic "QCKP"; the
// framing, checksums and embedded map are described there — the same
// container the `.qrl` log uses) whose record stream is strictly ordered:
// one CkMeta, the entity records in ascending ID order, the gone-ID
// records (delta only), the free-list records, the client records in
// ascending client-id order, and one CkEnd carrying the section counts
// and the post-state world digest.

// Record kinds.
const (
	CkMeta   uint8 = 1 // frame counters, world clock, table geometry
	CkEntity uint8 = 2 // one full-precision entity record
	CkGone   uint8 = 3 // delta only: entity IDs removed since the base image
	CkFree   uint8 = 4 // free-list IDs in stack order (chunked)
	CkClient uint8 = 5 // one client: identity, seq state, delta baseline
	CkEnd    uint8 = 6 // section counts + world digest
)

// FormatVersion is the current checkpoint format version.
const FormatVersion = 1

const ckMagic = "QCKP"

// Decode errors. The framing ones are the container's under this
// package's names; all are wrapped with position context, none of the
// decode paths panic, whatever the input, and on error the returned
// Checkpoint is nil — a corrupt file never half-applies.
var (
	ErrBadMagic   = qfile.ErrBadMagic
	ErrBadVersion = qfile.ErrBadVersion
	ErrTruncated  = qfile.ErrTruncated
	ErrChecksum   = qfile.ErrChecksum
	ErrBadRecord  = qfile.ErrBadRecord
	ErrTooLarge   = qfile.ErrTooLarge
	ErrOutOfOrder = errors.New("checkpoint: record out of order")
	ErrDigest     = errors.New("checkpoint: world digest mismatch")
)

// EntityRec is one entity's checkpointed state at full precision — the
// raw float64 fields, not the quantized wire form, because the recovery
// contract is bit-identity of the restored table (replay.TableDigest).
// The struct is flat and comparable: the delta capture diffs records
// with ==, and the writer's retained base image packs into one slice.
type EntityRec struct {
	ID    uint32
	Class uint8
	Flags uint8 // FlagOnGround | FlagHasPowerup | FlagSnapEligible | FlagLinked

	Origin, Velocity, Angles geom.Vec3
	Mins, Maxs               geom.Vec3

	Health, Armor, Frags, Deaths int64

	Weapon       uint8
	Weapons      uint16
	Ammo         int64
	PowerupUntil float64

	ItemClass uint8
	ItemSpawn int64
	RespawnAt float64

	Owner  int32
	Damage int64
	DieAt  float64

	RespawnTime, RefireAt, NextThink float64

	RoomID     int32
	ModelFrame uint8
}

// EntityRec flag bits.
const (
	FlagOnGround uint8 = 1 << iota
	FlagHasPowerup
	FlagSnapEligible
	FlagLinked
)

// ClientRec is one connected client's checkpointed state: identity and
// reconnect matching keys, the owning thread (the balance assignment),
// sequence/reply counters, the balancer's load estimate, and the delta
// baseline in the wire's quantized form.
type ClientRec struct {
	ID           uint16
	EntID        int32
	Thread       uint8
	LastSeq      uint32
	RepliedFrame uint32
	LoadNs       int64
	Name         string
	Addr         string
	BaselineTag  uint32
	Baseline     []protocol.EntityState
}

// Checkpoint is a fully decoded checkpoint.
type Checkpoint struct {
	WorldSeed int64
	ProtoVer  uint8
	// Map is the session's world map, embedded so recovery needs nothing
	// but the file.
	Map *worldmap.Map
	// mapJSON caches the exact serialized form for re-encoding.
	mapJSON []byte

	// Frame is the last completed frame the checkpoint covers.
	Frame uint64
	// WorldTime is the world clock at capture.
	WorldTime float64
	// SpawnCursor is the spawn-point rotation cursor.
	SpawnCursor int
	// HighWater and Capacity are the entity table's geometry; TreeDepth
	// is the areanode leaf depth — all three must be restored exactly or
	// post-recovery evolution diverges from the no-crash world.
	HighWater int
	Capacity  int
	TreeDepth int
	// NextClientID and JoinIdx restore client-id allocation and the
	// static-assignment join counter.
	NextClientID uint16
	JoinIdx      int
	// RecItems is the replay-log item count at capture: a redo log
	// recorded alongside this checkpoint replays items[RecItems:] to roll
	// forward (replay.Recover).
	RecItems uint64
	// Full distinguishes full images from deltas; a delta's BaseFrame
	// names the full checkpoint it diffs against.
	Full      bool
	BaseFrame uint64

	// Entities is the entity section in ascending ID order: every active
	// entity for a full checkpoint, the changed-or-new ones for a delta.
	Entities []EntityRec
	// Gone lists entity IDs removed since the base image (delta only).
	Gone []uint32
	// Free is the entity free list in stack order.
	Free []uint32
	// Clients is the connected-client section in ascending id order.
	Clients []ClientRec

	// Digest is the post-state world digest (replay.TableDigest of the
	// world this checkpoint reconstructs — for a delta, after merging).
	Digest uint64
}

// Size bounds: structural limits a corrupted length field cannot push
// past, far above anything the engine emits.
const (
	maxEntities = 1 << 20
	maxFreeIDs  = 1 << 20
	maxClients  = 1 << 16
	maxBaseline = 4096 // mirrors the wire's snapshot entity bound
)

func wF64(w *protocol.Writer, v float64) { w.U64(math.Float64bits(v)) }
func rF64(r *protocol.Reader) float64    { return math.Float64frombits(r.U64()) }

func wVec(w *protocol.Writer, v geom.Vec3) {
	wF64(w, v.X)
	wF64(w, v.Y)
	wF64(w, v.Z)
}

func rVec(r *protocol.Reader) geom.Vec3 {
	return geom.Vec3{X: rF64(r), Y: rF64(r), Z: rF64(r)}
}

// emitter frames records onto buf through one reused payload scratch:
// the back end Checkpoint.Encode and the Writer's capture path share, so
// the two cannot emit different bytes for the same section. Callers
// encode a payload into p and seal it with record.
type emitter struct {
	buf []byte
	p   protocol.Writer
	err error // first over-size payload
}

// record frames p's payload as one record of the given kind and resets p.
func (em *emitter) record(kind uint8) {
	var err error
	if em.buf, err = qfile.AppendRecord(em.buf, kind, em.p.Buf); err != nil && em.err == nil {
		em.err = err
	}
	em.p.Reset()
}

// idChunk bounds how many IDs one CkFree/CkGone record carries, so the
// payload stays within the u16 length field.
const idChunk = 8192

// appendIDChunks emits ids as records of the given kind, idChunk at a
// time.
func appendIDChunks[ID ~int32 | ~uint32](em *emitter, kind uint8, ids []ID) {
	for len(ids) > 0 {
		chunk := ids[:min(idChunk, len(ids))]
		ids = ids[len(chunk):]
		em.p.U16(uint16(len(chunk)))
		for _, id := range chunk {
			em.p.U32(uint32(id))
		}
		em.record(kind)
	}
}

// encodeEnd writes the end record's payload: the four section counts and
// the post-state world digest.
func encodeEnd(p *protocol.Writer, ents, gone, free, clients int, digest uint64) {
	p.U32(uint32(ents))
	p.U32(uint32(gone))
	p.U32(uint32(free))
	p.U32(uint32(clients))
	p.U64(digest)
}

func encodeMeta(p *protocol.Writer, ck *Checkpoint) {
	p.U64(ck.Frame)
	wF64(p, ck.WorldTime)
	p.U32(uint32(ck.SpawnCursor))
	p.U32(uint32(ck.HighWater))
	p.U32(uint32(ck.Capacity))
	p.U8(uint8(ck.TreeDepth))
	p.U16(ck.NextClientID)
	p.U32(uint32(ck.JoinIdx))
	p.U64(ck.RecItems)
	if ck.Full {
		p.U8(1)
	} else {
		p.U8(0)
	}
	p.U64(ck.BaseFrame)
}

func decodeMeta(r *protocol.Reader, ck *Checkpoint) error {
	ck.Frame = r.U64()
	ck.WorldTime = rF64(r)
	ck.SpawnCursor = int(r.U32())
	ck.HighWater = int(r.U32())
	ck.Capacity = int(r.U32())
	ck.TreeDepth = int(r.U8())
	ck.NextClientID = r.U16()
	ck.JoinIdx = int(r.U32())
	ck.RecItems = r.U64()
	full := r.U8()
	ck.BaseFrame = r.U64()
	if full > 1 {
		return fmt.Errorf("%w: meta full flag %d", ErrBadRecord, full)
	}
	ck.Full = full == 1
	if ck.Full && ck.BaseFrame != 0 {
		return fmt.Errorf("%w: full checkpoint names base frame %d", ErrBadRecord, ck.BaseFrame)
	}
	if ck.Capacity <= 0 || ck.Capacity > maxEntities {
		return fmt.Errorf("%w: capacity %d", ErrBadRecord, ck.Capacity)
	}
	if ck.HighWater < 0 || ck.HighWater > ck.Capacity {
		return fmt.Errorf("%w: high water %d over capacity %d", ErrBadRecord, ck.HighWater, ck.Capacity)
	}
	if ck.TreeDepth > 31 {
		return fmt.Errorf("%w: areanode depth %d", ErrBadRecord, ck.TreeDepth)
	}
	return nil
}

func encodeEntity(p *protocol.Writer, e *EntityRec) {
	p.U32(e.ID)
	p.U8(e.Class)
	p.U8(e.Flags)
	wVec(p, e.Origin)
	wVec(p, e.Velocity)
	wVec(p, e.Angles)
	wVec(p, e.Mins)
	wVec(p, e.Maxs)
	p.I64(e.Health)
	p.I64(e.Armor)
	p.I64(e.Frags)
	p.I64(e.Deaths)
	p.U8(e.Weapon)
	p.U16(e.Weapons)
	p.I64(e.Ammo)
	wF64(p, e.PowerupUntil)
	p.U8(e.ItemClass)
	p.I64(e.ItemSpawn)
	wF64(p, e.RespawnAt)
	p.I32(e.Owner)
	p.I64(e.Damage)
	wF64(p, e.DieAt)
	wF64(p, e.RespawnTime)
	wF64(p, e.RefireAt)
	wF64(p, e.NextThink)
	p.I32(e.RoomID)
	p.U8(e.ModelFrame)
}

func decodeEntity(r *protocol.Reader, e *EntityRec) {
	e.ID = r.U32()
	e.Class = r.U8()
	e.Flags = r.U8()
	e.Origin = rVec(r)
	e.Velocity = rVec(r)
	e.Angles = rVec(r)
	e.Mins = rVec(r)
	e.Maxs = rVec(r)
	e.Health = r.I64()
	e.Armor = r.I64()
	e.Frags = r.I64()
	e.Deaths = r.I64()
	e.Weapon = r.U8()
	e.Weapons = r.U16()
	e.Ammo = r.I64()
	e.PowerupUntil = rF64(r)
	e.ItemClass = r.U8()
	e.ItemSpawn = r.I64()
	e.RespawnAt = rF64(r)
	e.Owner = r.I32()
	e.Damage = r.I64()
	e.DieAt = rF64(r)
	e.RespawnTime = rF64(r)
	e.RefireAt = rF64(r)
	e.NextThink = rF64(r)
	e.RoomID = r.I32()
	e.ModelFrame = r.U8()
}

// encodeClient writes c. A non-nil addr is its address text, written in
// place of c.Addr.
func encodeClient(p *protocol.Writer, c *ClientRec, addr []byte) {
	p.U16(c.ID)
	p.I32(c.EntID)
	p.U8(c.Thread)
	p.U32(c.LastSeq)
	p.U32(c.RepliedFrame)
	p.I64(c.LoadNs)
	p.String(c.Name)
	if addr == nil {
		p.String(c.Addr)
	} else {
		addr = addr[:min(len(addr), 255)] // String's bound
		p.U8(uint8(len(addr)))
		p.Buf = append(p.Buf, addr...)
	}
	p.U32(c.BaselineTag)
	p.U16(uint16(len(c.Baseline)))
	for i := range c.Baseline {
		st := &c.Baseline[i]
		p.U16(st.ID)
		p.U8(st.Class)
		p.I16(st.X)
		p.I16(st.Y)
		p.I16(st.Z)
		p.U8(st.Yaw)
		p.U8(st.Frame)
		p.U8(st.Effects)
	}
}

func decodeClient(r *protocol.Reader, c *ClientRec) error {
	c.ID = r.U16()
	c.EntID = r.I32()
	c.Thread = r.U8()
	c.LastSeq = r.U32()
	c.RepliedFrame = r.U32()
	c.LoadNs = r.I64()
	c.Name = r.String()
	c.Addr = r.String()
	c.BaselineTag = r.U32()
	n := int(r.U16())
	if n > maxBaseline {
		return fmt.Errorf("%w: client %d baseline of %d states", ErrBadRecord, c.ID, n)
	}
	if r.Err() != nil {
		return nil // latched; caller reports
	}
	c.Baseline = make([]protocol.EntityState, n)
	for i := range c.Baseline {
		st := &c.Baseline[i]
		st.ID = r.U16()
		st.Class = r.U8()
		st.X = r.I16()
		st.Y = r.I16()
		st.Z = r.I16()
		st.Yaw = r.U8()
		st.Frame = r.U8()
		st.Effects = r.U8()
	}
	return nil
}

// Encode serializes the checkpoint. The inverse of Decode; the map blob
// is carried verbatim, so Encode∘Decode is the identity on the byte
// level.
//
//qvet:det
func (ck *Checkpoint) Encode() ([]byte, error) {
	mapJSON := ck.mapJSON
	if mapJSON == nil {
		if ck.Map == nil {
			return nil, fmt.Errorf("checkpoint: no map")
		}
		var mb bytes.Buffer
		if err := ck.Map.Save(&mb); err != nil {
			return nil, fmt.Errorf("checkpoint: serializing map: %w", err)
		}
		mapJSON = mb.Bytes()
	}

	var em emitter
	em.buf = make([]byte, 0, 256+len(mapJSON)+len(ck.Entities)*280+len(ck.Clients)*64)
	em.buf = qfile.AppendHeader(em.buf, ckMagic, FormatVersion, ck.WorldSeed, ck.ProtoVer, mapJSON)
	encodeMeta(&em.p, ck)
	em.record(CkMeta)
	for i := range ck.Entities {
		encodeEntity(&em.p, &ck.Entities[i])
		em.record(CkEntity)
	}
	// Section order matters: the decoder rejects a Gone record after the
	// Free section has opened.
	appendIDChunks(&em, CkGone, ck.Gone)
	appendIDChunks(&em, CkFree, ck.Free)
	for i := range ck.Clients {
		encodeClient(&em.p, &ck.Clients[i], nil)
		em.record(CkClient)
	}
	encodeEnd(&em.p, len(ck.Entities), len(ck.Gone), len(ck.Free), len(ck.Clients), ck.Digest)
	em.record(CkEnd)
	if em.err != nil {
		return nil, fmt.Errorf("%w: a record payload is over %d bytes", em.err, qfile.MaxPayload)
	}
	return em.buf, nil
}

// Body sections, in file order; a decode's cursor only moves forward.
const (
	secMeta = iota
	secEntities
	secGone
	secFree
	secClients
	secEnd
)

// Decode parses a complete checkpoint. It is total: any input —
// truncated, bit-flipped, reordered, or adversarial — yields an error,
// never a panic, and on error the returned Checkpoint is nil.
func Decode(data []byte) (*Checkpoint, error) {
	rd, err := qfile.Open(data, ckMagic, FormatVersion)
	if err != nil {
		return nil, err
	}
	m, err := worldmap.Load(bytes.NewReader(rd.MapJSON))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: embedded map: %w", err)
	}
	ck := &Checkpoint{WorldSeed: rd.WorldSeed, ProtoVer: rd.ProtoVer, Map: m, mapJSON: bytes.Clone(rd.MapJSON)}
	sec := secMeta
	var endCounts [4]uint32
	for rd.More() {
		at := rd.Offset()
		// Bytes after the end record are out of order whatever they hold,
		// so that is checked before their framing is.
		if sec == secEnd {
			return nil, fmt.Errorf("%w: records after end marker (at %d)", ErrOutOfOrder, at)
		}
		kind, payload, err := rd.Next()
		if err == nil {
			err = ck.decodeRecord(&sec, &endCounts, kind, payload)
		}
		if err != nil {
			return nil, fmt.Errorf("%w (record at %d)", err, at)
		}
	}
	if sec != secEnd {
		return nil, fmt.Errorf("%w: no end record", ErrTruncated)
	}
	if got := [4]uint32{uint32(len(ck.Entities)), uint32(len(ck.Gone)), uint32(len(ck.Free)), uint32(len(ck.Clients))}; got != endCounts {
		return nil, fmt.Errorf("%w: end counts %v vs sections %v", ErrBadRecord, endCounts, got)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

// decodeRecord parses one body record into ck, advancing the section
// cursor; the end record's counts land in endCounts for Decode to check
// against the sections.
func (ck *Checkpoint) decodeRecord(sec *int, endCounts *[4]uint32, kind uint8, payload []byte) error {
	r := protocol.NewReader(payload)
	// enter moves the cursor forward to section s: nothing precedes the
	// meta record and a closed section does not reopen.
	enter := func(s int) error {
		if *sec == secMeta {
			return fmt.Errorf("%w: kind %d before meta", ErrOutOfOrder, kind)
		}
		if *sec > s {
			return fmt.Errorf("%w: kind %d after its section closed", ErrOutOfOrder, kind)
		}
		*sec = s
		return nil
	}
	switch kind {
	case CkMeta:
		if *sec != secMeta {
			return fmt.Errorf("%w: duplicate meta", ErrOutOfOrder)
		}
		if err := decodeMeta(r, ck); err != nil {
			return err
		}
		*sec = secEntities
	case CkEntity:
		if err := enter(secEntities); err != nil {
			return err
		}
		if len(ck.Entities) >= maxEntities {
			return fmt.Errorf("%w: over %d entities", ErrTooLarge, maxEntities)
		}
		var e EntityRec
		decodeEntity(r, &e)
		if n := len(ck.Entities); n > 0 && ck.Entities[n-1].ID >= e.ID {
			return fmt.Errorf("%w: entity %d not above %d", ErrOutOfOrder, e.ID, ck.Entities[n-1].ID)
		}
		if int(e.ID) >= ck.Capacity {
			return fmt.Errorf("%w: entity %d past capacity %d", ErrBadRecord, e.ID, ck.Capacity)
		}
		ck.Entities = append(ck.Entities, e)
	case CkGone, CkFree:
		s, dst, lim := secGone, &ck.Gone, maxEntities
		if kind == CkFree {
			s, dst, lim = secFree, &ck.Free, maxFreeIDs
		}
		if err := enter(s); err != nil {
			return err
		}
		n := int(r.U16())
		for i := 0; i < n; i++ {
			id := r.U32()
			if r.Err() != nil {
				break
			}
			if len(*dst) >= lim {
				return fmt.Errorf("%w: over %d ids", ErrTooLarge, lim)
			}
			if int(id) >= ck.Capacity {
				return fmt.Errorf("%w: id %d past capacity %d", ErrBadRecord, id, ck.Capacity)
			}
			*dst = append(*dst, id)
		}
	case CkClient:
		if err := enter(secClients); err != nil {
			return err
		}
		if len(ck.Clients) >= maxClients {
			return fmt.Errorf("%w: over %d clients", ErrTooLarge, maxClients)
		}
		var c ClientRec
		if err := decodeClient(r, &c); err != nil {
			return err
		}
		if n := len(ck.Clients); n > 0 && ck.Clients[n-1].ID >= c.ID {
			return fmt.Errorf("%w: client %d not above %d", ErrOutOfOrder, c.ID, ck.Clients[n-1].ID)
		}
		ck.Clients = append(ck.Clients, c)
	case CkEnd:
		if err := enter(secEnd); err != nil {
			return err
		}
		for i := range endCounts {
			endCounts[i] = r.U32()
		}
		ck.Digest = r.U64()
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadRecord, kind)
	}
	if r.Err() != nil {
		return fmt.Errorf("%w: kind %d payload: %v", ErrBadRecord, kind, r.Err())
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: kind %d has %d trailing payload bytes", ErrBadRecord, kind, r.Remaining())
	}
	return nil
}

// validate performs the semantic checks beyond framing: section contents
// must describe a table that can actually be rebuilt.
func (ck *Checkpoint) validate() error {
	seen := make(map[uint32]bool, len(ck.Free))
	active := make(map[uint32]bool, len(ck.Entities))
	for i := range ck.Entities {
		if int(ck.Entities[i].ID) >= ck.HighWater {
			return fmt.Errorf("%w: entity %d above high water %d", ErrBadRecord, ck.Entities[i].ID, ck.HighWater)
		}
		active[ck.Entities[i].ID] = true
	}
	for _, id := range ck.Free {
		if int(id) >= ck.HighWater {
			return fmt.Errorf("%w: free id %d above high water %d", ErrBadRecord, id, ck.HighWater)
		}
		if seen[id] {
			return fmt.Errorf("%w: free id %d listed twice", ErrBadRecord, id)
		}
		if ck.Full && active[id] {
			return fmt.Errorf("%w: free id %d is active", ErrBadRecord, id)
		}
		seen[id] = true
	}
	if ck.Full {
		if len(ck.Gone) > 0 {
			return fmt.Errorf("%w: full checkpoint carries gone ids", ErrBadRecord)
		}
		if len(ck.Entities)+len(ck.Free) != ck.HighWater {
			return fmt.Errorf("%w: %d entities + %d free does not tile high water %d",
				ErrBadRecord, len(ck.Entities), len(ck.Free), ck.HighWater)
		}
	}
	for i := 1; i < len(ck.Gone); i++ {
		if ck.Gone[i-1] >= ck.Gone[i] {
			return fmt.Errorf("%w: gone ids not ascending", ErrOutOfOrder)
		}
	}
	return nil
}

// Merge applies a delta checkpoint to its base full image, returning the
// reconstructed full checkpoint. The delta's meta, free list, clients,
// and digest are authoritative; the entity set is the base's with the
// delta's records replacing or inserting and the gone IDs removed.
func Merge(base, delta *Checkpoint) (*Checkpoint, error) {
	if !base.Full {
		return nil, fmt.Errorf("%w: merge base is not a full checkpoint", ErrBadRecord)
	}
	if delta.Full {
		return nil, fmt.Errorf("%w: merge delta is a full checkpoint", ErrBadRecord)
	}
	if delta.BaseFrame != base.Frame {
		return nil, fmt.Errorf("%w: delta bases frame %d, image is frame %d", ErrBadRecord, delta.BaseFrame, base.Frame)
	}
	out := *delta
	out.Full = true
	out.BaseFrame = 0
	gone := make(map[uint32]bool, len(delta.Gone))
	for _, id := range delta.Gone {
		gone[id] = true
	}
	merged := make([]EntityRec, 0, len(base.Entities)+len(delta.Entities))
	bi, di := 0, 0
	for bi < len(base.Entities) || di < len(delta.Entities) {
		switch {
		case di >= len(delta.Entities) || (bi < len(base.Entities) && base.Entities[bi].ID < delta.Entities[di].ID):
			if !gone[base.Entities[bi].ID] {
				merged = append(merged, base.Entities[bi])
			}
			bi++
		case bi >= len(base.Entities) || delta.Entities[di].ID < base.Entities[bi].ID:
			merged = append(merged, delta.Entities[di])
			di++
		default: // equal IDs: delta replaces
			merged = append(merged, delta.Entities[di])
			bi++
			di++
		}
	}
	out.Entities = merged
	out.Gone = nil
	if err := out.validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// VerifyDigest recomputes the world digest from a full checkpoint's
// entity section and compares it to the recorded one. Deltas must be
// merged first.
func (ck *Checkpoint) VerifyDigest() error {
	if !ck.Full {
		return fmt.Errorf("checkpoint: cannot verify a delta standalone (merge with its base first)")
	}
	if got := DigestEntities(ck.WorldTime, ck.Entities); got != ck.Digest {
		return fmt.Errorf("%w: computed %016x, recorded %016x", ErrDigest, got, ck.Digest)
	}
	return nil
}

// WriteFile encodes the checkpoint to path via write-to-temp plus
// atomic rename, so a crash mid-write never leaves a torn file under the
// final name.
func (ck *Checkpoint) WriteFile(path string) error {
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	return atomicWrite(path, data)
}

func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadFile decodes a checkpoint from path.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Package replay implements deterministic record/replay for the game
// server: a Recorder that taps the frame pipeline's deterministic input
// stream (ticks, committed moves, connects/disconnects, migration and
// shed decisions) into a compact length-prefixed binary log, a Replayer
// that re-runs a log through any engine — sequential, parallel, or DES —
// and checks bit-identical world state and normalized reply streams, and
// a delta-debugging Shrinker that reduces a failing log to a minimal
// reproducer. See DESIGN.md §11 for the determinism contract.
package replay

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"qserve/internal/protocol"
	"qserve/internal/qfile"
	"qserve/internal/worldmap"
)

// A `.qrl` file is an internal/qfile container (magic "QRPL"; the
// framing, checksums and embedded map are described there) whose records
// are the kinds below in tap order, optionally closed by one KindEnd.

// Record kinds.
const (
	KindTick       uint8 = 1 // world-physics step: dtNs i64
	KindMove       uint8 = 2 // committed move: client u16, seq u32, cmd (13 bytes)
	KindConnect    uint8 = 3 // admission: client u16, ent i32, thread u8, name string
	KindDisconnect uint8 = 4 // removal: client u16, reason u8
	KindMigrate    uint8 = 5 // balance decision: client u16, to u8
	KindShed       uint8 = 6 // overload ladder level: level u8
	KindFrame      uint8 = 7 // frame-end marker: frame u64
	KindEnd        uint8 = 8 // session end: frames u64, world digest u64
)

// FormatVersion is the current log format version.
//
//qvet:wire=qrpl version
const FormatVersion = 1

const logMagic = "QRPL"

// Decode errors. The framing ones are the container's under this
// package's names; all are wrapped with position context, and none of
// the decode paths panic, whatever the input.
var (
	ErrBadMagic    = qfile.ErrBadMagic
	ErrBadVersion  = qfile.ErrBadVersion
	ErrTruncated   = qfile.ErrTruncated
	ErrChecksum    = qfile.ErrChecksum
	ErrBadRecord   = qfile.ErrBadRecord
	ErrLogTooLarge = qfile.ErrTooLarge
	ErrOutOfOrder  = errors.New("replay: record out of order")
)

// Item is one decoded log record. Kind selects which fields are
// meaningful; the struct is flat (no interface, no pointer) so a log's
// items pack into one slice and the recorder appends without allocating.
//
//qvet:wire=qrpl
type Item struct {
	Kind   uint8
	Client uint16
	Thread uint8
	Reason uint8
	To     uint8
	Level  uint8
	Seq    uint32
	Ent    int32
	DtNs   int64
	Frame  uint64
	Cmd    protocol.MoveCmd
	Name   string
}

// Log is a fully decoded replay log.
//
//qvet:wire=qrpl
type Log struct {
	WorldSeed int64
	ProtoVer  uint8
	// Map is the session's world map, embedded in the log so a replay
	// needs nothing but the log file.
	Map *worldmap.Map
	// mapJSON caches the exact serialized form for re-encoding.
	mapJSON []byte
	Items   []Item
	// End-of-session summary, present when the recorder was finished
	// cleanly (HasEnd): total frames and the recording world's table
	// digest, the target a faithful replay must reproduce.
	HasEnd    bool
	EndFrames uint64
	EndDigest uint64
}

// Ticks counts the world-physics steps in the log — the "frame" count
// in the shrinker's reduction metric.
func (lg *Log) Ticks() int {
	n := 0
	for i := range lg.Items {
		if lg.Items[i].Kind == KindTick {
			n++
		}
	}
	return n
}

// Moves counts committed move records.
func (lg *Log) Moves() int {
	n := 0
	for i := range lg.Items {
		if lg.Items[i].Kind == KindMove {
			n++
		}
	}
	return n
}

// Clients returns the distinct client ids that connect in the log, in
// first-connect order.
func (lg *Log) Clients() []uint16 {
	seen := make(map[uint16]bool)
	var out []uint16
	for i := range lg.Items {
		it := &lg.Items[i]
		if it.Kind == KindConnect && !seen[it.Client] {
			seen[it.Client] = true
			out = append(out, it.Client)
		}
	}
	return out
}

// Encode serializes the log. The inverse of Decode; Encode∘Decode is
// the identity on the byte level (the map blob is carried verbatim).
//
//qvet:det
//qvet:wire=qrpl encode
func (lg *Log) Encode() ([]byte, error) {
	mapJSON := lg.mapJSON
	if mapJSON == nil {
		if lg.Map == nil {
			return nil, fmt.Errorf("replay: log has no map")
		}
		var mb bytes.Buffer
		if err := lg.Map.Save(&mb); err != nil {
			return nil, fmt.Errorf("replay: serializing map: %w", err)
		}
		mapJSON = mb.Bytes()
	}

	buf := make([]byte, 0, 64+len(mapJSON)+len(lg.Items)*16)
	buf = qfile.AppendHeader(buf, logMagic, FormatVersion, lg.WorldSeed, lg.ProtoVer, mapJSON)
	var p protocol.Writer
	var err error
	for i := range lg.Items {
		if buf, err = appendItem(buf, &p, &lg.Items[i]); err != nil {
			return nil, err
		}
	}
	if lg.HasEnd {
		end := Item{Kind: KindEnd, Frame: lg.EndFrames, DtNs: int64(lg.EndDigest)}
		if buf, err = appendItem(buf, &p, &end); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendItem encodes one item's payload into the reused scratch p and
// frames it onto dst.
func appendItem(dst []byte, p *protocol.Writer, it *Item) ([]byte, error) {
	p.Reset()
	switch it.Kind {
	case KindTick:
		p.I64(it.DtNs)
	case KindMove:
		p.U16(it.Client)
		p.U32(it.Seq)
		protocol.EncodeMoveCmd(p, &it.Cmd)
	case KindConnect:
		p.U16(it.Client)
		p.I32(it.Ent)
		p.U8(it.Thread)
		p.String(it.Name)
	case KindDisconnect:
		p.U16(it.Client)
		p.U8(it.Reason)
	case KindMigrate:
		p.U16(it.Client)
		p.U8(it.To)
	case KindShed:
		p.U8(it.Level)
	case KindFrame:
		p.U64(it.Frame)
	case KindEnd:
		p.U64(it.Frame)        // total frames
		p.U64(uint64(it.DtNs)) // world digest (EndDigest aliased into DtNs)
	default:
		return dst, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, it.Kind)
	}
	return qfile.AppendRecord(dst, it.Kind, p.Buf)
}

// Decode parses a complete log. It is total: any input — truncated,
// bit-flipped, reordered, or adversarial — yields an error, never a
// panic, and never a partially-poisoned Log (on error the returned Log
// is nil).
//
//qvet:wire=qrpl decode
func Decode(data []byte) (*Log, error) {
	lg, _, err := decode(data, false)
	return lg, err
}

// DecodePrefix parses as much of a possibly torn log as is intact: the
// header must decode (a log whose header is damaged carries no usable
// information), but the record stream may stop mid-record — a kill -9
// can land between the frame flush and the next — and everything up to
// the first truncated or corrupt record is returned. The boundary is
// trustworthy because every record carries its own fold16: a torn tail
// cannot masquerade as a valid record. The second result is the number
// of trailing bytes that were dropped.
func DecodePrefix(data []byte) (*Log, int, error) {
	return decode(data, true)
}

// decode is the one pass behind Decode and DecodePrefix. In prefix mode
// the first record that does not read back — truncated, corrupt,
// malformed, or following an end marker — ends the log instead of
// failing it.
func decode(data []byte, prefix bool) (*Log, int, error) {
	rd, err := qfile.Open(data, logMagic, FormatVersion)
	if err != nil {
		return nil, 0, err
	}
	m, err := worldmap.Load(bytes.NewReader(rd.MapJSON))
	if err != nil {
		return nil, 0, fmt.Errorf("replay: embedded map: %w", err)
	}
	lg := &Log{WorldSeed: rd.WorldSeed, ProtoVer: rd.ProtoVer, Map: m, mapJSON: bytes.Clone(rd.MapJSON)}
	for rd.More() {
		at := rd.Offset()
		it, err := nextItem(rd, lg.HasEnd)
		switch {
		case err != nil && prefix:
			return lg, len(data) - at, nil
		case err != nil:
			return nil, 0, fmt.Errorf("%w (record at %d)", err, at)
		case it.Kind == KindEnd:
			// Folded into the Log summary rather than the item stream.
			lg.HasEnd, lg.EndFrames, lg.EndDigest = true, it.Frame, uint64(it.DtNs)
		default:
			lg.Items = append(lg.Items, it)
		}
	}
	return lg, 0, nil
}

// nextItem reads and parses the record at rd's offset. Bytes after an
// end marker are out of order whatever they hold, so that is checked
// before their framing is.
func nextItem(rd *qfile.Reader, sawEnd bool) (Item, error) {
	if sawEnd {
		return Item{}, fmt.Errorf("%w: records after end marker", ErrOutOfOrder)
	}
	kind, payload, err := rd.Next()
	if err != nil {
		return Item{}, err
	}
	return decodeRecord(kind, payload)
}

// decodeRecord parses one record payload.
func decodeRecord(kind uint8, payload []byte) (it Item, err error) {
	r := protocol.NewReader(payload)
	it.Kind = kind
	switch kind {
	case KindTick:
		it.DtNs = r.I64()
		if it.DtNs <= 0 {
			return it, fmt.Errorf("%w: non-positive tick dt", ErrBadRecord)
		}
	case KindMove:
		it.Client = r.U16()
		it.Seq = r.U32()
		protocol.DecodeMoveCmd(r, &it.Cmd)
	case KindConnect:
		it.Client = r.U16()
		it.Ent = r.I32()
		it.Thread = r.U8()
		it.Name = r.String()
	case KindDisconnect:
		it.Client = r.U16()
		it.Reason = r.U8()
	case KindMigrate:
		it.Client = r.U16()
		it.To = r.U8()
	case KindShed:
		it.Level = r.U8()
	case KindFrame:
		it.Frame = r.U64()
	case KindEnd:
		it.Frame = r.U64()
		it.DtNs = int64(r.U64())
	default:
		return it, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, kind)
	}
	if r.Err() != nil {
		return it, fmt.Errorf("%w: kind %d payload: %v", ErrBadRecord, kind, r.Err())
	}
	if r.Remaining() != 0 {
		return it, fmt.Errorf("%w: kind %d has %d trailing payload bytes", ErrBadRecord, kind, r.Remaining())
	}
	return it, nil
}

// Validate checks the log's internal consistency beyond framing: every
// move/disconnect names a connected client, connects don't repeat while
// connected, and per-client move sequences advance within the live
// engines' acceptance window. The replayer runs it before driving an
// engine so a corrupt-but-well-framed log fails fast instead of hanging
// a lockstep await.
func (lg *Log) Validate() error {
	connected := make(map[uint16]bool)
	lastSeq := make(map[uint16]uint32)
	for i := range lg.Items {
		it := &lg.Items[i]
		switch it.Kind {
		case KindConnect:
			if connected[it.Client] {
				return fmt.Errorf("%w: item %d: client %d connects twice", ErrOutOfOrder, i, it.Client)
			}
			connected[it.Client] = true
		case KindDisconnect:
			if !connected[it.Client] {
				return fmt.Errorf("%w: item %d: disconnect of unconnected client %d", ErrOutOfOrder, i, it.Client)
			}
			delete(connected, it.Client)
		case KindMove:
			if !connected[it.Client] {
				return fmt.Errorf("%w: item %d: move of unconnected client %d", ErrOutOfOrder, i, it.Client)
			}
			if last, ok := lastSeq[it.Client]; ok && it.Seq != 0 {
				if it.Seq == last || int32(it.Seq-last) < 0 {
					return fmt.Errorf("%w: item %d: client %d seq %d not after %d", ErrOutOfOrder, i, it.Client, it.Seq, last)
				}
				if it.Seq-last > 1<<12 {
					return fmt.Errorf("%w: item %d: client %d seq jumps %d→%d past the acceptance window", ErrOutOfOrder, i, it.Client, last, it.Seq)
				}
			}
			if it.Seq != 0 {
				lastSeq[it.Client] = it.Seq
			}
		}
	}
	return nil
}

// WriteFile encodes the log to path.
func (lg *Log) WriteFile(path string) error {
	data, err := lg.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile decodes a log from path.
func ReadFile(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ReadPrefixFile reads path and decodes its intact prefix.
func ReadPrefixFile(path string) (*Log, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return DecodePrefix(data)
}

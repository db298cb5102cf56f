// Package qfile is the durable container both on-disk formats share: the
// `.qrl` replay log (internal/replay) and the `.qck` checkpoint
// (internal/checkpoint) differ in their magic, their version and what
// their records mean, and in nothing else. This file is the only place
// the container is written or walked.
//
// Layout (all integers little-endian):
//
//	magic   4 bytes ("QRPL" or "QCKP")
//	version u16
//	header record: [len u32][payload][sum u16]
//	    payload: worldSeed i64, protoVer u8, mapJSON bytes
//	records: [kind u8][len u16][payload][sum u16] ...
//
// Each sum is the wire v3 FNV-1a 16-bit fold (protocol.Fold16) over
// everything that precedes it in the record, framing bytes included, so
// a flipped kind or length byte is caught exactly like flipped payload,
// and a torn tail cannot masquerade as a valid record. The map is
// embedded as the qmap JSON serialization: a log or a checkpoint must be
// usable with nothing but the file (arena maps and hand-edited maps have
// no generator config to regenerate from).
//
// The package is a leaf — it needs only protocol's Writer, Reader and
// Fold16 — and knows no record kind: which kinds exist, their payloads
// and their order are the two formats' business.
package qfile

import (
	"encoding/binary"
	"errors"
	"fmt"

	"qserve/internal/protocol"
)

// Framing errors. Reader wraps them with position context; nothing here
// panics, whatever the input. The format packages re-export them under
// their own names (replay.ErrChecksum, checkpoint.ErrTruncated, ...), so
// errors.Is holds against either spelling.
var (
	ErrBadMagic   = errors.New("qfile: wrong file type (bad magic)")
	ErrBadVersion = errors.New("qfile: unsupported format version")
	ErrTruncated  = errors.New("qfile: truncated file")
	ErrChecksum   = errors.New("qfile: record checksum mismatch")
	ErrBadRecord  = errors.New("qfile: malformed record")
	ErrTooLarge   = errors.New("qfile: exceeds size limits")
)

const (
	// MaxPayload bounds one record's payload; the u16 length field
	// enforces it structurally.
	MaxPayload = 1<<16 - 1
	// MaxMapJSON bounds the header payload (default maps are ~100KB of
	// JSON; 64MB is far past any map qmap can emit but small enough that
	// a corrupted length field cannot drive a giant allocation).
	MaxMapJSON = 64 << 20

	preambleLen    = 4 + 2 // magic, version
	headerFixedLen = 8 + 1 // worldSeed, protoVer
	sumLen         = 2
)

// AppendHeader appends the magic, the version and the checksummed header
// record to dst.
func AppendHeader(dst []byte, magic string, version uint16, worldSeed int64, protoVer uint8, mapJSON []byte) []byte {
	w := protocol.Writer{Buf: append(dst, magic...)}
	w.U16(version)
	start := len(w.Buf)
	w.U32(uint32(headerFixedLen + len(mapJSON)))
	w.I64(worldSeed)
	w.U8(protoVer)
	w.Buf = append(w.Buf, mapJSON...)
	w.U16(protocol.Fold16(w.Buf[start:]))
	return w.Buf
}

// AppendRecord frames one record onto dst: kind, u16 length, payload,
// sum. A payload over MaxPayload leaves dst untouched and returns the
// bare ErrTooLarge (no formatting: the capture path calls this under its
// 0 allocs/op gate).
//
//qvet:noalloc
func AppendRecord(dst []byte, kind uint8, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return dst, ErrTooLarge
	}
	start := len(dst)
	dst = append(dst, kind, byte(len(payload)), byte(len(payload)>>8))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint16(dst, protocol.Fold16(dst[start:])), nil
}

// Reader walks one file. Open verifies the preamble and the header
// record; Next then yields the records one at a time. The header fields
// and every payload alias the input.
type Reader struct {
	WorldSeed int64
	ProtoVer  uint8
	MapJSON   []byte

	data []byte
	off  int
}

// Open checks data's magic and version against the caller's format and
// verifies and parses the header record.
func Open(data []byte, magic string, version uint16) (*Reader, error) {
	if len(data) < preambleLen {
		return nil, ErrTruncated
	}
	if string(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	body := data[preambleLen:]
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: header length", ErrTruncated)
	}
	hlen := int(binary.LittleEndian.Uint32(body))
	if hlen < headerFixedLen || hlen > MaxMapJSON {
		return nil, fmt.Errorf("%w: header payload %d bytes", ErrBadRecord, hlen)
	}
	if len(body) < 4+hlen+sumLen {
		return nil, fmt.Errorf("%w: header body", ErrTruncated)
	}
	if protocol.Fold16(body[:4+hlen]) != binary.LittleEndian.Uint16(body[4+hlen:]) {
		return nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	r := &Reader{data: data, off: preambleLen + 4 + hlen + sumLen}
	hr := protocol.NewReader(body[4 : 4+hlen])
	r.WorldSeed = hr.I64()
	r.ProtoVer = hr.U8()
	r.MapJSON = body[4+headerFixedLen : 4+hlen]
	return r, nil
}

// Offset is the end of the intact prefix: the header plus every record
// Next has returned so far. A failed Next does not move it.
func (r *Reader) Offset() int { return r.off }

// More reports whether any bytes follow the intact prefix.
func (r *Reader) More() bool { return r.off < len(r.data) }

// Next returns the next record's kind and payload, or the reason the
// bytes at Offset are not a whole record: ErrTruncated when the file
// ends inside it (including at a clean end of file — check More first),
// ErrChecksum when its sum does not match. Bounds are checked before
// slicing and the sum before the payload is handed out.
func (r *Reader) Next() (kind uint8, payload []byte, err error) {
	rest := r.data[r.off:]
	if len(rest) < 3 {
		return 0, nil, fmt.Errorf("%w: record header at %d", ErrTruncated, r.off)
	}
	plen := int(binary.LittleEndian.Uint16(rest[1:]))
	if len(rest) < 3+plen+sumLen {
		return 0, nil, fmt.Errorf("%w: record body at %d", ErrTruncated, r.off)
	}
	if protocol.Fold16(rest[:3+plen]) != binary.LittleEndian.Uint16(rest[3+plen:]) {
		return 0, nil, fmt.Errorf("%w: record at %d", ErrChecksum, r.off)
	}
	r.off += 3 + plen + sumLen
	return rest[0], rest[3 : 3+plen], nil
}

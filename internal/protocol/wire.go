// Package protocol defines qserve's binary wire format: the client move
// command stream and the server's delta-compressed entity snapshots,
// modelled on the QuakeWorld protocol the paper's server speaks. All
// encoding is little-endian, one message per UDP datagram.
//
// Decoders are total: any byte string either decodes or returns an error;
// malformed input never panics and never allocates unboundedly.
package protocol

import (
	"encoding/binary"
	"errors"
	"math"
)

// Magic and Version open every datagram. Version 2 added the snapshot
// BaseFrame field, which lets clients detect delta-chain breaks caused
// by packet loss instead of silently corrupting their entity tables.
// Version 3 appended a 16-bit checksum trailer to every datagram, so
// bit-level corruption is rejected at decode instead of being accepted
// as a structurally valid message with garbage fields (a corrupted Move
// sequence number or a corrupted-but-consistent Snapshot would
// otherwise poison per-client state silently).
const (
	Magic   uint8 = 0xA5
	Version uint8 = 3
)

// ErrChecksum reports a datagram whose checksum trailer does not match
// its contents: in-flight corruption.
var ErrChecksum = errors.New("protocol: checksum mismatch")

// ErrTruncated reports a datagram shorter than its contents require.
var ErrTruncated = errors.New("protocol: truncated message")

// ErrTrailing reports a datagram longer than its contents: a message
// followed by extra bytes. A bit flip in an embedded count or length
// prefix can shrink how much of the datagram the parser consumes while
// the prefix still parses; rejecting trailing garbage keeps such
// corruption from being half-accepted.
var ErrTrailing = errors.New("protocol: trailing bytes after message")

// ErrBadMagic reports a datagram that is not a qserve packet.
var ErrBadMagic = errors.New("protocol: bad magic or version")

// Writer appends primitive values to a byte slice. The zero value with a
// pre-allocated Buf is ready to use; Bytes returns the built message.
type Writer struct {
	Buf []byte
}

// Bytes returns the accumulated message.
func (w *Writer) Bytes() []byte { return w.Buf }

// Reset truncates the writer for reuse, keeping capacity.
func (w *Writer) Reset() { w.Buf = w.Buf[:0] }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }

// I16 appends a little-endian int16.
func (w *Writer) I16(v int16) { w.U16(uint16(v)) }

// I32 appends a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F32 appends a little-endian float32.
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// String appends a length-prefixed (uint8) string, truncating to 255
// bytes.
func (w *Writer) String(s string) {
	if len(s) > 255 {
		s = s[:255]
	}
	w.U8(uint8(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Reader consumes primitive values from a byte slice, latching the first
// error; all subsequent reads return zero values.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps data for reading.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I16 reads a little-endian int16.
func (r *Reader) I16() int16 { return int16(r.U16()) }

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F32 reads a little-endian float32.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U8())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

package qfile

import "math"

// Fold64 is the 64-bit FNV-1a fold every durable digest uses — the world
// digest stamped into both file formats and replay's reply-stream
// digests. It is the same hash family as the container's 16-bit sums,
// widened so a whole session's state folds without birthday trouble.
// Values fold by their little-endian bytes; floats by their raw IEEE
// bits, so a ULP of drift changes the digest.
type Fold64 uint64

// Fold64Init is the empty fold (the FNV-1a offset basis).
const Fold64Init Fold64 = 14695981039346656037

const fold64Prime Fold64 = 1099511628211

func (h Fold64) Byte(b byte) Fold64 { return (h ^ Fold64(b)) * fold64Prime }

func (h Fold64) U32(v uint32) Fold64 {
	for i := 0; i < 4; i++ {
		h = h.Byte(byte(v >> (8 * i)))
	}
	return h
}

func (h Fold64) U64(v uint64) Fold64 {
	for i := 0; i < 8; i++ {
		h = h.Byte(byte(v >> (8 * i)))
	}
	return h
}

func (h Fold64) I64(v int64) Fold64   { return h.U64(uint64(v)) }
func (h Fold64) F64(v float64) Fold64 { return h.U64(math.Float64bits(v)) }

func (h Fold64) Bool(v bool) Fold64 {
	if v {
		return h.Byte(1)
	}
	return h.Byte(0)
}

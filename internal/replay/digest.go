package replay

import (
	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/qfile"
)

// TableDigest folds the complete mutable world state — every active
// entity's fields in ID order, plus the world clock — into one 64-bit
// value. Two worlds with equal digests went through the same evolution
// bit for bit: positions and velocities are folded as raw float64 bits,
// so even a ULP of drift between engines is caught. It is the digest
// checkpoints record (checkpoint.DigestWorld owns the field list), under
// the name the replay and conformance suites know it by.
//
//qvet:det
func TableDigest(w *game.World) uint64 { return checkpoint.DigestWorld(w) }

// streamDigest accumulates a client's normalized reply stream. Snapshot
// datagrams are folded raw — every byte the server sent — except the
// two fields that legitimately differ across engines while representing
// the same information:
//
//   - Frame: engines disagree on absolute frame numbers (a parallel
//     frame forms per datagram group, a DES frame per virtual-time
//     batch). It is rewritten to the client's reply ordinal.
//   - BaseFrame: names the snapshot that established the delta baseline
//     as Frame+1; rewritten through the same ordinal map.
//
// Everything else — AckSeq, ServerTime, the player state, the delta
// set, events, even field order — must match exactly or the digests
// diverge.
type streamDigest struct {
	h        qfile.Fold64
	replies  uint32
	frameOrd map[uint32]uint32 // recorded Frame+1 → reply ordinal
}

func newStreamDigest() *streamDigest {
	return &streamDigest{h: qfile.Fold64Init, frameOrd: make(map[uint32]uint32)}
}

// Snapshot wire offsets (after the 3-byte magic/version/type prefix):
// Frame u32, AckSeq u32, BaseFrame u32, ServerTime u32, then state. The
// trailing 2 bytes are the wire checksum, excluded from the fold (it
// covers the raw Frame/BaseFrame values being rewritten).
const (
	snapFrameOff = 3
	snapBaseOff  = 11
	snapTailSum  = 2
)

// addSnapshot folds one received snapshot datagram. data is the raw
// datagram; frame and baseFrame are its decoded header fields.
func (sd *streamDigest) addSnapshot(data []byte, frame, baseFrame uint32) {
	sd.replies++
	ord := sd.replies
	sd.frameOrd[frame+1] = ord
	baseOrd := uint32(0)
	if baseFrame != 0 {
		baseOrd = sd.frameOrd[baseFrame] // 0 when unknown: still deterministic
	}
	for i, b := range data[:len(data)-snapTailSum] {
		switch {
		case i >= snapFrameOff && i < snapFrameOff+4:
			b = byte(ord >> (8 * (i - snapFrameOff)))
		case i >= snapBaseOff && i < snapBaseOff+4:
			b = byte(baseOrd >> (8 * (i - snapBaseOff)))
		}
		sd.h = sd.h.Byte(b)
	}
}

func (sd *streamDigest) sum() uint64 { return uint64(sd.h) }

// combineStreams folds per-client stream digests, in recorded-client-id
// order, into the session stream digest.
func combineStreams(ids []uint16, digests map[uint16]uint64) uint64 {
	h := qfile.Fold64Init
	for _, id := range ids {
		h = h.U32(uint32(id)).U64(digests[id])
	}
	return uint64(h)
}

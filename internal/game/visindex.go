package game

import (
	"math/bits"
	"slices"

	"qserve/internal/entity"
	"qserve/internal/geom"
	"qserve/internal/protocol"
)

// This file implements frame-coherent interest management for the reply
// phase. The naive path (BuildSnapshot) makes every client re-scan the
// whole entity table and re-encode every visible entity's wire state,
// O(clients × entities) per frame, even though the emitted
// protocol.EntityState is viewer-independent. A VisIndex inverts that
// loop: once per frame it encodes every snapshot-eligible entity exactly
// once into a pooled state cache — entries in ascending entity-ID order —
// and tags each entry with its room bucket, recorded as one membership
// bitset per bucket (bit i is entry i). Each client's snapshot then walks
// the entries 64 at a time: it ORs together the bitsets of the buckets
// the viewer's room takes outright, range-checks and re-checks, decides
// which candidates pass, and copies the precomputed states of the pass
// bits — no per-client re-encoding, no entity-table walk, a skipped
// bucket costs nothing per entry, and ID order falls out of the bit
// order for free.
//
// The build is read-only over world state and is split into two passes
// so the parallel engine can partition the expensive one across its
// worker threads at the reply barrier:
//
//	Begin       serial: collect eligible entries + bucket assignment
//	EncodeShard parallel: encode wire states for one shard of entries
//
// Build runs both sequentially (the sequential and DES engines).
//
// Correctness bar: AppendVisible is byte-identical to BuildSnapshot for
// every viewer (golden_test.go in internal/server, visindex_test.go
// here). The key soundness argument is the skip classification: room r
// is skipped for viewer room v only when the boxes that RoomAt accepts
// points into for v and r are further apart than visCutoff, so no
// accepted viewer/entity position pair can pass the range fallback.
// Entities whose cached RoomID disagrees with their origin (a stale
// room after a move RoomAt could not classify) go to a stale bucket that
// every viewer re-checks with the full naive predicate, and room-unknown
// entities (doorway bands) to an overflow bucket that always takes the
// range check.

// visShardSize is the entry count per EncodeShard unit of work.
const visShardSize = 32

// VisIndex is the per-frame visibility index + entity-state cache. All
// backing storage is pooled: after warm-up a steady-state rebuild
// performs no allocations. A VisIndex is built single-threaded or via
// the Begin/EncodeShard protocol, then read concurrently by any number
// of reply threads; it must not be rebuilt while readers are active (the
// frame barriers order build and use).
type VisIndex struct {
	w *World

	// Entry arrays, parallel, in ascending entity-ID order.
	ids     []entity.ID            // eligible entity IDs
	rooms   []int32                // claimed RoomID (naive semantics), -1 unknown
	buckets []int32                // classification bucket (see Begin)
	origins []geom.Vec3            // exact origins for range checks
	states  []protocol.EntityState // encoded wire states (EncodeShard fills)

	// Bucket-major membership bitsets: bucket b's words are
	// sets[b*words:(b+1)*words], and bit i of them is set when entry i
	// is in bucket b. Every entry is in exactly one bucket.
	sets  []uint64
	words int // 64-entry words per bucket
}

// Len returns the number of cached (snapshot-eligible) entities.
func (vi *VisIndex) Len() int { return len(vi.ids) }

// Detach drops the index's world reference. A pooled index shared
// across match instances (DESIGN.md §13) is detached when parked so it
// cannot keep an evicted match's world reachable.
func (vi *VisIndex) Detach() { vi.w = nil }

// Begin runs the serial collect pass: it snapshots the eligible entity
// set from the table's active-ID index and assigns each entry a bucket —
// the entity's room for fresh rooms, nRooms for room-unknown entries,
// nRooms+1 for entries whose cached room no longer contains the origin —
// and records the buckets as membership bitsets for AppendVisible. Must
// be called before EncodeShard; single-threaded.
//
//qvet:phase=reply
func (vi *VisIndex) Begin(w *World) {
	vi.w = w
	nRooms := len(w.Map.Rooms)
	vi.ids = vi.ids[:0]
	vi.rooms = vi.rooms[:0]
	vi.buckets = vi.buckets[:0]
	for _, id := range w.Ents.ActiveIDs() {
		e := w.Ents.Get(id)
		if !e.SnapEligible {
			continue
		}
		room := int32(e.RoomID)
		b := int32(nRooms) // overflow: room unknown, always range-checked
		if e.RoomID >= 0 {
			if e.RoomID < nRooms && w.static.visRoomBounds != nil && w.static.visRoomBounds[e.RoomID].Contains(e.Origin) {
				b = room
			} else {
				// The cached room no longer contains the origin: the entry
				// keeps naive semantics (room-visibility against the stale
				// room OR range) via the stale bucket.
				b = int32(nRooms + 1)
			}
		}
		vi.ids = append(vi.ids, id)
		vi.rooms = append(vi.rooms, room)
		vi.buckets = append(vi.buckets, b)
	}
	n := len(vi.ids)
	if cap(vi.states) < n {
		// Entry-array growth is amortized: both arrays are reused across
		// frames and only regrow when the eligible population does.
		vi.states = make([]protocol.EntityState, n)
		vi.origins = make([]geom.Vec3, n)
	}
	vi.states = vi.states[:n]
	vi.origins = vi.origins[:n]

	nw := (n + 63) / 64
	size := (nRooms + 2) * nw
	if cap(vi.sets) < size {
		// Amortized bitset growth, with the population or the room count.
		vi.sets = make([]uint64, size)
	}
	sets := vi.sets[:size]
	clear(sets)
	for i, b := range vi.buckets {
		sets[int(b)*nw+i>>6] |= 1 << (uint(i) & 63)
	}
	vi.sets, vi.words = sets, nw
}

// Shards returns how many EncodeShard units the current entry set
// divides into.
func (vi *VisIndex) Shards() int {
	return (len(vi.ids) + visShardSize - 1) / visShardSize
}

// EncodeShard encodes the wire states and captures the origins for one
// shard of entries. Distinct shards may run on distinct threads
// concurrently: each writes a disjoint range of the entry arrays and
// only reads world state, which the reply barrier freezes. Once every
// shard has run the index is complete.
//
//qvet:phase=reply
func (vi *VisIndex) EncodeShard(s int) {
	lo := s * visShardSize
	hi := lo + visShardSize
	if hi > len(vi.ids) {
		hi = len(vi.ids)
	}
	ents := vi.w.Ents
	for i := lo; i < hi; i++ {
		e := ents.Get(vi.ids[i])
		vi.states[i] = captureState(e)
		vi.origins[i] = e.Origin
	}
}

// Build runs the full pipeline on the calling thread — the sequential
// fallback used by the sequential and DES engines, tests, and
// benchmarks.
//
//qvet:phase=reply
func (vi *VisIndex) Build(w *World) {
	vi.Begin(w)
	for s, n := 0, vi.Shards(); s < n; s++ {
		vi.EncodeShard(s)
	}
}

// AppendVisible assembles the viewer's visible entity set from the
// index, appending the cached wire states to dst (returned, grown) in
// ascending entity-ID order — byte-identical to what BuildSnapshot
// would emit for the same world state. The work counters report the
// entities actually examined, which for a room-known viewer excludes
// everything in skip-classified rooms — the index's whole point.
//
// Aliasing contract: identical to BuildSnapshot — the returned slice
// shares dst's backing array; the cached states are copied into it, so
// dst never aliases the shared index.
//
//qvet:phase=reply
func (vi *VisIndex) AppendVisible(viewer *entity.Entity, dst []protocol.EntityState) ([]protocol.EntityState, SnapshotWork) {
	var work SnapshotWork
	w := vi.w
	nRooms := len(w.Map.Rooms)
	vRoom := viewer.RoomID
	viewerID := viewer.ID
	vo := viewer.Origin
	const cut2 = visCutoff * visCutoff

	// Fast path precondition: the viewer's cached room really contains
	// its origin, so the precomputed room classification's skip verdicts
	// are sound for this viewer. Doorway-band viewers (unknown room) and
	// stale-room viewers fall back to a straight scan of the cache with
	// the naive per-entity predicate — still no re-encoding.
	if vRoom < 0 || vRoom >= nRooms || len(w.static.visTake) == 0 ||
		!w.static.visRoomBounds[vRoom].Contains(vo) {
		for i := range vi.ids {
			if vi.ids[i] == viewerID {
				continue
			}
			work.Considered++
			if !vi.entryVisible(vRoom, vo, i, cut2) {
				continue
			}
			dst = append(dst, vi.states[i])
			work.Visible++
		}
		return dst, work
	}

	// One pass over the entries, a 64-entry word at a time. The take,
	// check and stale bitsets of the word are ORed from the viewer room's
	// bucket lists, so a skipped bucket is never read. The pass mask is
	// decided first (take bits outright, check bits by range, stale bits
	// by the naive predicate), then its states are copied in bit order.
	st := w.static
	take, check := st.visTake[vRoom], st.visCheck[vRoom]
	nw := vi.words
	stale := vi.sets[(nRooms+1)*nw : (nRooms+2)*nw]
	visStart := len(dst)
	// The viewer's own entry, if it has one: entries are in ID order.
	self, selfWord := uint64(0), -1
	if i, ok := slices.BinarySearch(vi.ids, viewerID); ok {
		self, selfWord = 1<<(i%64), i/64
	}
	for wi := 0; wi < nw; wi++ {
		var t, c uint64
		for _, b := range take {
			t |= vi.sets[int(b)*nw+wi]
		}
		for _, b := range check {
			c |= vi.sets[int(b)*nw+wi]
		}
		s := stale[wi]
		if wi == selfWord {
			t, c, s = t&^self, c&^self, s&^self
		}
		work.Considered += bits.OnesCount64(t | c | s)
		base := wi * 64
		pass := t
		for m := c; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if vo.DistSq(vi.origins[base+j]) <= cut2 {
				pass |= 1 << j
			}
		}
		for m := s; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if vi.entryVisible(vRoom, vo, base+j, cut2) {
				pass |= 1 << j
			}
		}
		// Grow dst once, then copy the pass bits' states in bit order.
		n := len(dst)
		k := bits.OnesCount64(pass)
		if cap(dst)-n < k {
			dst = append(make([]protocol.EntityState, 0, 2*cap(dst)+k), dst...)
		}
		dst = dst[:n+k]
		for ; pass != 0; pass &= pass - 1 {
			dst[n] = vi.states[base+bits.TrailingZeros64(pass)]
			n++
		}
	}
	work.Visible = len(dst) - visStart
	return dst, work
}

// entryVisible is the naive entityVisible predicate over a cached entry:
// room-visibility against the entry's claimed room, falling back to the
// audible-range check (the same DistSq the naive path computes, so the
// two paths agree bit-for-bit at the cutoff boundary).
func (vi *VisIndex) entryVisible(vRoom int, vo geom.Vec3, i int, cut2 float64) bool {
	if r := vi.rooms[i]; r >= 0 && vRoom >= 0 && vi.w.Map.Visible(vRoom, int(r)) {
		return true
	}
	return vo.DistSq(vi.origins[i]) <= cut2
}

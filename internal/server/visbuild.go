package server

import (
	"sync"

	"qserve/internal/game"
)

// visBuilder coordinates the once-per-frame visibility-index build across
// the engine's worker threads. Workers hit the reply phase at
// slightly different times; whichever arrives first starts the build and
// every arrival — initiator or not — helps encode state shards until none
// remain, then waits for the last finisher to publish the index. The
// expensive pass (wire-state encoding) is thereby partitioned across
// however many workers have reached the barrier, exactly the paper's
// prescription of splitting phase work among threads rather than electing
// one thread to do it while the rest idle.
//
// Correctness relies on two properties of the surrounding engine:
//
//   - Every worker that calls acquire for frame f has passed the
//     request->reply barrier for f, so all concurrent acquirers agree on
//     the frame number and the world state is frozen read-only.
//   - The protocol never waits for absent peers (a lone acquirer claims
//     and encodes every shard itself), so a frame with one participant
//     cannot deadlock it.
type visBuilder struct {
	mu   sync.Mutex
	cond *sync.Cond

	// index is the engine's visibility index: its own, or the one in the
	// buffer set a stepped engine has borrowed (nil while it is parked).
	index *game.VisIndex

	// stamp is frame+1 of the build the fields below describe (0: none).
	stamp uint64
	// phase: 0 idle/collecting, 1 encoding, 2 published.
	phase int
	// next is the first unclaimed shard; done counts completed shards;
	// shards is the total for this build.
	next, done, shards int
}

func newVisBuilder(index *game.VisIndex) *visBuilder {
	vb := &visBuilder{index: index}
	vb.cond = sync.NewCond(&vb.mu)
	return vb
}

// acquire returns the visibility index for the given frame, building it
// cooperatively if this is the frame's first acquisition. Safe to call
// from any number of workers concurrently; every caller blocks until the
// index is published and all callers return the same pointer.
//
//qvet:phase=reply
func (vb *visBuilder) acquire(frame uint64, w *game.World) *game.VisIndex {
	want := frame + 1
	vb.mu.Lock()
	defer vb.mu.Unlock()
	if vb.stamp != want {
		// First arrival for this frame: run the serial collect pass and
		// open shard claiming. Holding mu keeps late arrivals parked in
		// the branches below until the entry arrays exist.
		vb.stamp = want
		vb.phase = 1
		vb.index.Begin(w)
		vb.next, vb.done, vb.shards = 0, 0, vb.index.Shards()
	}
	for vb.phase == 1 {
		if vb.next < vb.shards {
			vb.encodeOne(vb.next)
			continue
		}
		if vb.done == vb.shards {
			// No shards at all (empty world): the claimer loop never ran,
			// publish directly.
			vb.phase = 2
			vb.cond.Broadcast()
			break
		}
		// All shards claimed but some still encoding on other workers:
		// wait for the last finisher to publish.
		vb.cond.Wait()
	}
	return vb.index
}

// encodeOne claims and encodes shard s, dropping mu around the encode.
// Completion bookkeeping runs in a defer so that even a panicking encode
// (contained by the caller's reply-phase recovery) cannot strand peers
// waiting for a shard that will never finish.
//
//qvet:phase=reply
func (vb *visBuilder) encodeOne(s int) {
	vb.next++
	vb.mu.Unlock()
	defer func() {
		vb.mu.Lock()
		vb.done++
		if vb.done == vb.shards {
			vb.phase = 2
			vb.cond.Broadcast()
		}
	}()
	vb.index.EncodeShard(s)
}

// Package server implements the live execution engines for the game
// server: the sequential baseline (the paper's Figure 1 loop) and the
// multithreaded parallel server (Figure 3) with phase barriers, frame
// master election, the global-state-buffer lock, and region locking over
// the areanode tree. "Threads" are goroutines; on a multicore host the Go
// runtime spreads them across CPUs exactly as pthreads would.
//
// The companion package simserver runs the same orchestration on a
// simulated machine with virtual time; this package is the real,
// deployable server.
package server

import (
	"sync"
	"sync/atomic"
	"time"

	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// client is the server-side record of one connected player.
type client struct {
	id    uint16
	entID entity.ID
	name  string
	addr  transport.Addr
	// addrStr caches addr.String(): it keys the byAddr index and lets the
	// checkpoint capture record the address without allocating per frame.
	// For a client parked by restore (addr == nil until it reconnects) it
	// holds the checkpointed address, so a survivor returning from the
	// same endpoint maps straight onto its old record.
	addrStr string
	// thread is the owning server thread. Static until the load balancer
	// migrates the client: the frame master rewrites it at the rebalance
	// barrier, where no request is in flight and the frame controller's
	// mutex orders the write before any later frame's reads.
	thread int

	// loadNs is the client's decayed execute-phase cost, the balancer's
	// input. Charged by whichever thread executes the client's request —
	// the owner, or a thief under work stealing; either way the cost
	// names the serving client, so migration plans reflect who is
	// expensive, not who ran them. Read and decayed (by atomic
	// subtraction) by the master at the barrier. Atomic because a wedged
	// thread abandoned by the watchdog may still be mid-write when the
	// master reads.
	loadNs atomic.Int64

	// Request-phase state, touched only by the owning thread.
	replyPending bool
	lastSeq      uint32 // sequence of the request being answered

	// repliedFrame is the last frame this client received a reply in.
	// Written by the owning thread during the reply phase and read by
	// the master during cleanup. The frame barriers order the accesses in
	// normal operation; atomic so an abandoned (zombie) thread straggling
	// through its reply phase cannot race the master.
	repliedFrame atomic.Uint32

	// claim serializes request execution for this client under work
	// stealing: an executor CASes it from 0 to its worker id+1 before
	// running one of the client's pooled requests and stores 0 after the
	// commit. At most one request per client is ever in flight, and pool
	// scans take a client's oldest entry first, so the claim preserves
	// per-client FIFO execution — the order static assignment provided
	// for free. The CAS/store pair also gives release/acquire ordering
	// for the thief's plain writes to replyPending/lastSeq before the
	// owner's reply phase reads them (the owner observes the completion
	// counter that is decremented after the claim release). Unused (0)
	// when stealing is off.
	claim atomic.Int32

	// leafHint caches the leaf-ordinal bitmask of the client's last
	// executed move (the frameLeafMask vocabulary of Fig. 7c). The
	// stealing scheduler reads it to skip stealing requests whose region
	// probably conflicts with work other threads are executing right now.
	// Purely a heuristic: correctness comes from the region locks, and 0
	// (no information) permits stealing.
	leafHint atomic.Uint64

	// gone marks a removed client: its entity slot has been (or is about
	// to be) freed and may already be recycled as some other entity, so
	// pooled requests of this client still in flight must complete as
	// no-ops without touching it. Set while holding the client's claim
	// (claimForRemoval), so the claim-release/claim-acquire pair orders
	// the flag before any later executor's entity reads.
	gone atomic.Bool

	// quarantined marks a client whose request wedged its owning thread:
	// the watchdog sets it when it abandons the thread, every thread drops
	// the client's traffic, and the recovering thread evicts it. Also set
	// by panic containment between the recover and the eviction.
	quarantined atomic.Bool

	// quarantinedBy records which worker (id+1) quarantined the client,
	// so the recovery path evicts exactly the clients it condemned. With
	// stealing, the wedged request's client may belong to a *different*
	// thread than the executor the watchdog abandoned; keying recovery on
	// ownership alone would leave such a client quarantined forever.
	// 0 means unattributed (legacy paths); rolled back together with
	// quarantined when an abandonment attempt fails.
	quarantinedBy atomic.Int32

	// shedFar marks the client as far from the action centroid: under
	// overload (shed level >= 1) its snapshot rate is halved. Computed by
	// the master at frame cleanup, read by owning threads' reply phases.
	shedFar atomic.Bool

	// baseline is the last entity set sent, for delta compression.
	// Owned by the owning thread (reply phase); the request phase of the
	// same thread may Invalidate it (the frame barriers order the two).
	baseline Baseline

	// resetBaseline asks the owning thread's reply phase to invalidate
	// the baseline. Any thread may set it (duplicate connects can arrive
	// on any endpoint); only the owner consumes it.
	resetBaseline atomic.Bool

	// seqResync suspends the duplicate/wild seq window for the client's
	// next accepted move, which re-seeds lastSeq instead of being
	// filtered. Set on restore-parked and drain-resumed clients, whose
	// peer may have restarted its own seq space (older than lastSeq) or
	// raced far ahead of the recovered counter; consumed by the owning
	// thread at its first accepted command. Deliberately NOT set on
	// ordinary duplicate connects: a mid-session re-handshake must not
	// open a replay window for stale datagrams.
	seqResync atomic.Bool

	// awaitingResume marks a client restored from a checkpoint and parked
	// for its player to reconnect: addr is nil (nothing is sent to it), and
	// the first Connect matching its address or name rebinds it in place —
	// keeping its entity, seq state, and identity — instead of admitting a
	// new player. Aged out by the normal stale-client reaper if the player
	// never returns.
	awaitingResume atomic.Bool

	// fwdFrame, when nonzero, records frameNumber+1 of the moment a worker
	// forwarded one of this client's datagrams to the owning thread. While
	// set, the balancer must not migrate the client: a migration would
	// re-route the datagram to yet another thread, and under per-frame
	// migration the datagram can chase the assignment forever (a livelock
	// observed in the conformance suite). The owning thread clears it when
	// the command executes; the balancer also expires stale stamps, in
	// case the forwarded datagram was dropped. Atomic because any worker
	// may forward.
	fwdFrame atomic.Uint64

	// backlog holds broadcast events queued while the client was not
	// replied to. It is the per-player reply message buffer of §3.3,
	// "synchronized with locks (one per buffer)".
	backlogMu sync.Mutex
	backlog   []protocol.GameEvent

	// lastActive is the wall clock (UnixNano) of the client's last valid
	// request, for the stale-client reaper. Atomic for the same
	// zombie-straggler reason as repliedFrame.
	lastActive atomic.Int64
}

// touch stamps the client's activity clock.
func (c *client) touch(t time.Time) { c.lastActive.Store(t.UnixNano()) }

// markReplied records that the client was answered in the given frame.
func (c *client) markReplied(frame uint32) { c.repliedFrame.Store(frame) }

// queueEvents appends events to the client's backlog under its buffer
// lock.
func (c *client) queueEvents(events []protocol.GameEvent) {
	if len(events) == 0 {
		return
	}
	c.backlogMu.Lock()
	c.backlog = append(c.backlog, events...)
	if len(c.backlog) > 128 {
		// Bound memory for clients that stop requesting updates.
		c.backlog = c.backlog[len(c.backlog)-128:]
	}
	c.backlogMu.Unlock()
}

// drainBacklog appends the backlog to dst under its lock and empties it,
// keeping the backlog's capacity for reuse. dst is typically a reusable
// per-thread buffer, so the drain allocates nothing in steady state.
func (c *client) drainBacklog(dst []protocol.GameEvent) []protocol.GameEvent {
	c.backlogMu.Lock()
	defer c.backlogMu.Unlock()
	dst = append(dst, c.backlog...)
	c.backlog = c.backlog[:0]
	return dst
}

// clientTable is the server-wide registry. Connection handling mutates
// it; frame phases only read, so an RWMutex suffices.
//
// ordered mirrors byID sorted by client id. Every per-frame sweep
// (events, stale eviction, shed-far, rebalance input) iterates this
// slice instead of ranging the map: Go's randomized map iteration order
// would otherwise leak into eviction order, event-queue order, and —
// through entity-slot recycling — the world state itself, breaking
// bit-identical replay. Maintained on add/remove; adds are O(1) in the
// common case because ids are assigned in increasing order.
type clientTable struct {
	mu      sync.RWMutex
	byAddr  map[string]*client
	byID    map[uint16]*client
	ordered []*client
	nextID  uint16
	maxSize int
}

func newClientTable(maxSize int) *clientTable {
	return &clientTable{
		byAddr:  make(map[string]*client),
		byID:    make(map[uint16]*client),
		maxSize: maxSize,
	}
}

func (t *clientTable) lookup(addr transport.Addr) *client {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byAddr[addr.String()]
}

func (t *clientTable) lookupID(id uint16) *client {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byID[id]
}

func (t *clientTable) add(c *client) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.byID) >= t.maxSize {
		return false
	}
	c.id = t.nextID
	t.nextID++
	c.addrStr = c.addr.String()
	t.byAddr[c.addrStr] = c
	t.byID[c.id] = c
	t.insertOrdered(c)
	return true
}

// addRestored inserts a checkpointed client under its recorded id. The
// id allocator advances past it so later joins cannot collide with a
// restored identity. Restore-time only (no concurrent engine).
func (t *clientTable) addRestored(c *client) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.byID) >= t.maxSize {
		return false
	}
	if _, dup := t.byID[c.id]; dup {
		return false
	}
	if c.addrStr != "" {
		t.byAddr[c.addrStr] = c
	}
	t.byID[c.id] = c
	t.insertOrdered(c)
	if c.id >= t.nextID {
		t.nextID = c.id + 1
	}
	return true
}

// setNextID advances the id allocator to at least n (the checkpointed
// counter), so ids of clients that disconnected before the crash are not
// reissued to post-restore joiners while their player may still try to
// resume against a stale id.
func (t *clientTable) setNextID(n uint16) {
	t.mu.Lock()
	if n > t.nextID {
		t.nextID = n
	}
	t.mu.Unlock()
}

// insertOrdered adds c to the id-sorted slice; callers hold t.mu. Ids
// are normally handed out in increasing order, so this is an append.
func (t *clientTable) insertOrdered(c *client) {
	pos := len(t.ordered)
	for pos > 0 && t.ordered[pos-1].id > c.id {
		pos--
	}
	t.ordered = append(t.ordered, nil)
	copy(t.ordered[pos+1:], t.ordered[pos:])
	t.ordered[pos] = c
}

// rebind points a parked (or roaming) client at a new transport address,
// rekeying the byAddr index.
func (t *clientTable) rebind(c *client, addr transport.Addr) {
	t.mu.Lock()
	if c.addrStr != "" && t.byAddr[c.addrStr] == c {
		delete(t.byAddr, c.addrStr)
	}
	c.addr = addr
	c.addrStr = addr.String()
	t.byAddr[c.addrStr] = c
	t.mu.Unlock()
}

// lookupResume finds a parked awaiting-resume client by player name —
// the fallback match for a survivor reconnecting from a new address
// (NAT rebind across the restart). Lowest id wins on (unlikely)
// duplicate names, keeping the match deterministic.
func (t *clientTable) lookupResume(name string) *client {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, c := range t.ordered {
		if c.awaitingResume.Load() && c.name == name {
			return c
		}
	}
	return nil
}

func (t *clientTable) remove(c *client) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byID[c.id] != c {
		return // already removed (idempotent paths race benignly)
	}
	if t.byAddr[c.addrStr] == c {
		delete(t.byAddr, c.addrStr)
	}
	delete(t.byID, c.id)
	for i, o := range t.ordered {
		if o == c {
			t.ordered = append(t.ordered[:i], t.ordered[i+1:]...)
			break
		}
	}
}

func (t *clientTable) count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.byID)
}

// snapshotInto appends the current client set to buf under the read lock
// and returns the extended buffer. Callers iterate the snapshot lock-free
// (visitors may send packets). The snapshot is in client-id order — a
// determinism requirement, not a convenience (see clientTable).
func (t *clientTable) snapshotInto(buf []*client) []*client {
	t.mu.RLock()
	buf = append(buf, t.ordered...)
	t.mu.RUnlock()
	return buf
}

// forEach snapshots the client set and visits each entry without holding
// the lock. It allocates the snapshot; per-frame paths use forEachBuf /
// forThreadBuf with a reused scratch buffer instead.
func (t *clientTable) forEach(fn func(*client)) {
	for _, c := range t.snapshotInto(nil) {
		fn(c)
	}
}

// forEachBuf is forEach with a caller-owned snapshot buffer, so steady-
// state frame sweeps allocate nothing. It returns the (possibly grown)
// buffer for the caller to stash.
func (t *clientTable) forEachBuf(buf []*client, fn func(*client)) []*client {
	buf = t.snapshotInto(buf[:0])
	for _, c := range buf {
		fn(c)
	}
	return buf
}

// forThreadBuf visits the clients owned by one server thread, through a
// caller-owned snapshot buffer.
func (t *clientTable) forThreadBuf(buf []*client, thread int, fn func(*client)) []*client {
	buf = t.snapshotInto(buf[:0])
	for _, c := range buf {
		if c.thread == thread {
			fn(c)
		}
	}
	return buf
}

// seqOlder reports whether sequence a is not newer than b under uint32
// wraparound arithmetic (serial number comparison).
func seqOlder(a, b uint32) bool {
	return a == b || int32(a-b) < 0
}

// maxSeqAdvance bounds how far ahead of the last executed command a
// move's sequence number may jump. Clients advance Seq by one per
// command, so even a burst flushed after a long outage stays far inside
// this window.
const maxSeqAdvance = 1 << 12

// seqWild reports whether sequence a is implausibly far ahead of b —
// the signature of a corrupted datagram that happened to decode as a
// structurally valid Move. Storing such a sequence would poison the
// duplicate filter: every legitimate future move would compare "older"
// and be dropped, permanently silencing the client off a single
// bit-flip. Callers check seqOlder first, so a-b here is a forward
// delta in [1, 2^31) and the comparison is wraparound-safe.
func seqWild(a, b uint32) bool {
	return a-b > maxSeqAdvance
}

// wireEvents converts game events to their protocol form.
func wireEvents(events []game.Event) []protocol.GameEvent {
	if len(events) == 0 {
		return nil
	}
	out := make([]protocol.GameEvent, len(events))
	for i, ev := range events {
		out[i] = ev.WireEvent()
	}
	return out
}

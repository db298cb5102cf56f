package server

// The steal scheduler's pool (DESIGN.md §10), once for every substrate:
// the live parallel engine instantiates it behind a mutex with a
// compare-and-swap claim (stealing.go), the discrete-event engine with a
// plain bool (internal/simserver/stealing.go). The pool itself is plain
// data — the entry, the FIFO, the scan rules and the park placement —
// and reaches the engine's per-client claim only through the closure a
// scan is handed.

// StealEntry is one pooled request, stamped with its deterministic commit
// order (owner, arrival index). C is the engine's client handle; the pool
// keeps per-client FIFO order across entries with equal handles. M is the
// request itself, opaque to the pool.
type StealEntry[C comparable, M any] struct {
	Client C
	Move   M      // by value: the receive buffer is reused per datagram
	Owner  int    // owning thread (commit-order major key)
	Idx    int    // arrival index within the owner's frame (minor key)
	Hint   uint64 // leaf-ordinal mask of the client's last move, 0 = unknown
	Parks  uint8  // times this entry parked on a contended first acquire
}

// StealPool is one thread's per-frame request deque. The owner pushes at
// the tail during its receive drain; the owner and thieves remove entries
// head-first. Entries parked on lock conflict re-enter the pool (front, or
// tail when deferral cannot reorder the client). The pool does no locking
// of its own: concurrent users wrap it in theirs.
type StealPool[C comparable, M any] struct {
	q []StealEntry[C, M]
	// head indexes the first live entry; popping advances it instead of
	// shifting the slice, and Push compacts when the pool empties, so the
	// steady-state frame loop does not allocate.
	head int
}

// Push appends an entry at the tail (owner only, during receive drain).
//
//qvet:noalloc
func (p *StealPool[C, M]) Push(e StealEntry[C, M]) {
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
	}
	p.q = append(p.q, e)
}

// MaxStealParks is how many contended first acquisitions an entry may
// dodge (park, recompute, retry) before it falls back to a blocking
// acquire. One try is not enough under a lock wall — at 8T/160 players
// most requests hit a busy region on the first probe and a single park
// would immediately re-queue them into the same blocking wait the static
// design pays; a few retries let the contended moment pass. Bounded so a
// permanently contended region cannot livelock an entry: past the cap the
// owner executes it with a plain Acquire, which always completes. An
// entry built with its budget already spent never parks — the static
// schedule's inline execution.
const MaxStealParks = 12

// scanBlockMax bounds the per-scan "blocked client" memo. A scan that
// skips an entry without claiming it (a blocking-mode deferral, a
// conflict-hint skip, or a refused claim) must also skip every later
// entry of that client to preserve per-client FIFO order; the memo
// records those clients without allocating. Scans deeper than this
// simply stop — correctness is unaffected, the entries just wait for
// the owner.
const scanBlockMax = 16

// Take removes and returns the first claimable entry, scanning head to
// tail; claim is the engine's per-client claim attempt, and a true return
// leaves the client claimed by the caller. Per-client order is preserved
// two ways: an entry skipped without being claimed — by a scan rule or a
// refused claim — blocks the client for the rest of the scan, and removal
// shifts the skipped entries so relative order never changes. The
// refused claim MUST block the client rather than just skip the entry: a
// concurrent engine releases claims without excluding scans (the live
// runPoolEntry, after commit or park), so a claim observed held at one
// entry can be free by the time the same scan reaches the client's next
// entry, and claiming that one would commit it ahead of its predecessor.
//
// Every scan skips entries whose hint intersects avoid — regions other
// threads are executing right now. Probing such an entry's region would
// either queue on a busy lock or burn a park; deferring it until the
// conflicting execution ends costs the same time and touches no lock.
// This is the conflict-awareness the scheduler exists for, and it applies
// to the owner exactly as to a thief: the phase loop re-scans after a
// yield, and the conflict clears as soon as the executing thread
// publishes a zero mask (an executor always finishes, so deferral cannot
// deadlock).
//
// Both scans also defer blocking-mode entries (parked MaxStealParks
// times): executing one means queueing on the very lock that parked it,
// so it should run as late as possible, when the contenders that refused
// it have drained. The owner falls back to them once nothing else in its
// pool is claimable (the second, deferBlocked=false scan); a thief never
// takes them — stalling a thief defeats the point of stealing.
//
//qvet:noalloc
func (p *StealPool[C, M]) Take(asThief bool, avoid uint64, claim func(C) bool) (StealEntry[C, M], bool) {
	if e, ok := p.takeScan(true, avoid, claim); ok {
		return e, true
	}
	if asThief {
		return StealEntry[C, M]{}, false
	}
	return p.takeScan(false, avoid, claim)
}

// takeScan is one pass of Take.
//
//qvet:noalloc
func (p *StealPool[C, M]) takeScan(deferBlocked bool, avoid uint64, claim func(C) bool) (StealEntry[C, M], bool) {
	var blocked [scanBlockMax]C
	nblocked := 0
scan:
	for i := p.head; i < len(p.q); i++ {
		e := &p.q[i]
		for j := 0; j < nblocked; j++ {
			if blocked[j] == e.Client {
				continue scan
			}
		}
		if (deferBlocked && e.Parks >= MaxStealParks) || e.Hint&avoid != 0 || !claim(e.Client) {
			if nblocked == scanBlockMax {
				break
			}
			blocked[nblocked] = e.Client
			nblocked++
			continue
		}
		out := *e
		copy(p.q[p.head+1:i+1], p.q[p.head:i])
		p.q[p.head] = StealEntry[C, M]{}
		p.head++
		return out, true
	}
	return StealEntry[C, M]{}, false
}

// Requeue returns a parked entry to the pool. The caller still holds the
// client's claim, so no scan can take a later entry of the same client
// while we decide where to put it: at the tail when this is the client's
// only pooled entry (deferring it cannot reorder the client), else at the
// front (it must stay ahead of the client's later entries).
//
//qvet:noalloc
func (p *StealPool[C, M]) Requeue(e StealEntry[C, M]) {
	for i := p.head; i < len(p.q); i++ {
		if p.q[i].Client != e.Client {
			continue
		}
		if p.head > 0 {
			p.head--
			p.q[p.head] = e
		} else {
			p.q = append(p.q, StealEntry[C, M]{})
			copy(p.q[1:], p.q)
			p.q[0] = e
		}
		return
	}
	p.Push(e)
}

// Drain empties the pool and returns how many entries it removed — the
// zombie-recovery path discarding work a dead frame will never commit.
func (p *StealPool[C, M]) Drain() int {
	n := len(p.q) - p.head
	p.q = p.q[:0]
	p.head = 0
	return n
}

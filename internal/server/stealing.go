package server

import (
	"runtime"
	"sync"
	"time"

	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
)

// Work-stealing request execution (DESIGN.md §10).
//
// The paper's static design executes each request on the thread that owns
// the client, so at 8T/160 players the request phase is dominated by lock
// stalls and barrier idling (Fig. 5/6: 31% lock time, 9–22% inter-frame
// wait). This scheduler breaks that wall: during the request phase each
// worker appends its clients' move commands to a per-worker frame pool
// instead of executing them inline, then drains its own pool first and
// steals pending entries from other workers' pools when its own work is
// done. Execution is conflict-aware twice over: a pool scan skips entries
// whose cached leaf mask intersects regions other threads are executing
// right now, and the first region acquisition of every pooled move is a
// try-acquire — on contention the entry is parked back in its owner's
// pool (to be retried, eventually with a blocking acquire) and the worker
// takes a non-conflicting entry instead of queueing.
//
// Determinism: every entry is stamped with its commit order — the owning
// worker and the arrival index within that worker's frame — and the pool
// is a FIFO honoring that stamp. A per-client claim (client.claim)
// guarantees at most one of a client's requests is in flight at a time,
// and scans always take a client's oldest entry first, so each client's
// commands execute in exactly the arrival order static assignment gave
// them. Cross-client interleaving may differ from the static schedule,
// but it was never deterministic there either (it is a race between
// threads for region locks); per-client order is the only order the wire
// protocol — and hence the conformance suite — can observe.

// poolEntry is one pooled move command, stamped with its deterministic
// commit order (owner worker, arrival index).
type poolEntry struct {
	c     *client
	m     protocol.Move // by value: the receive buffer is reused per datagram
	owner int           // owning worker id (commit-order major key)
	idx   int           // arrival index within the owner's frame (minor key)
	hint  uint64        // leaf-ordinal mask of the client's last move, 0 = unknown
	parks uint8         // times this entry parked on a contended first acquire
}

// stealPool is one worker's per-frame request deque. The owner pushes at
// the tail during its receive drain; the owner and thieves remove entries
// head-first under the mutex. Entries parked on lock conflict re-enter
// the pool (front, or tail when deferral cannot reorder the client).
type stealPool struct {
	mu sync.Mutex
	q  []poolEntry
	// head indexes the first live entry; popping advances it instead of
	// shifting the slice, and push compacts when the pool empties, so the
	// steady-state frame loop does not allocate.
	head int

	// scanClaimHook, when non-nil, runs after a scan observes a claim
	// CAS failure. Test-only seam: the FIFO regression test uses it to
	// release the claim at exactly that point — the mid-scan completion
	// window the blocked memo exists to cover — which wall-clock timing
	// cannot force deterministically. A field rather than a package var
	// so the seam is per-instance: two engines in one process (match
	// manager, DESIGN.md §13) must not see each other's test hooks.
	// Always nil in production.
	scanClaimHook func(c *client)
}

// push appends an entry at the tail (owner only, during receive drain).
//
//qvet:noalloc
func (p *stealPool) push(e poolEntry) {
	p.mu.Lock()
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
	}
	p.q = append(p.q, e)
	p.mu.Unlock()
}

// maxStealParks is how many contended first acquisitions an entry may
// dodge (park, recompute, retry) before it falls back to a blocking
// acquire. One try is not enough under a lock wall — at 8T/160 players
// most requests hit a busy region on the first probe and a single park
// would immediately re-queue them into the same blocking wait the static
// design pays; a few retries let the contended moment pass. Bounded so a
// permanently contended region cannot livelock an entry: past the cap the
// owner executes it with a plain Acquire, which always completes.
const maxStealParks = 12

// scanBlockMax bounds the per-scan "blocked client" memo. A scan that
// skips an entry without claiming it (a blocking-mode deferral, a
// conflict-hint skip, or a failed claim CAS) must also skip every later
// entry of that client to preserve per-client FIFO order; the memo
// records those clients without allocating. Scans deeper than this
// simply stop — correctness is unaffected, the entries just wait for
// the owner.
const scanBlockMax = 16

// take removes and returns the first claimable entry, scanning head to
// tail. Per-client order is preserved two ways: an entry skipped
// without being claimed — by a scan rule or a failed claim CAS — blocks
// the client for the rest of the scan, and removal shifts the remaining
// entries so relative order never changes. The CAS failure MUST block
// the client rather than just skip the entry: claims are released
// without the pool mutex (runPoolEntry, after commit or park), so a
// claim observed held at one entry can be free by the time the same
// scan reaches the client's next entry, and claiming that one would
// commit it ahead of its predecessor.
//
// Every scan skips entries whose hint intersects avoid — regions other
// workers are executing right now. Probing such an entry's region would
// either queue on a busy lock or burn a park; deferring it until the
// conflicting execution ends costs the same wall time and touches no
// lock. This is the conflict-awareness the scheduler exists for, and it
// applies to the owner exactly as to a thief: the phase loop re-scans
// after a yield, and the conflict clears as soon as the executing worker
// publishes a zero mask (an executor always finishes, so deferral cannot
// deadlock).
//
// Both scans also defer blocking-mode entries (parked maxStealParks
// times): executing one means queueing on the very lock that parked it,
// so it should run as late as possible, when the contenders that refused
// it have drained. The owner falls back to them once nothing else in its
// pool is claimable (the second, deferBlocked=false scan); a thief never
// takes them — stalling a thief defeats the point of stealing.
//
//qvet:noalloc
func (p *stealPool) take(self *worker, asThief bool, avoid uint64) (poolEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.takeScan(self, true, avoid); ok {
		return e, true
	}
	if asThief {
		return poolEntry{}, false
	}
	return p.takeScan(self, false, avoid)
}

// takeScan is one pass of take, run under the pool mutex.
//
//qvet:noalloc
func (p *stealPool) takeScan(self *worker, deferBlocked bool, avoid uint64) (poolEntry, bool) {
	var blocked [scanBlockMax]*client
	nblocked := 0
scan:
	for i := p.head; i < len(p.q); i++ {
		e := &p.q[i]
		for j := 0; j < nblocked; j++ {
			if blocked[j] == e.c {
				continue scan
			}
		}
		if (deferBlocked && e.parks >= maxStealParks) ||
			(e.hint != 0 && e.hint&avoid != 0) {
			if nblocked == scanBlockMax {
				break
			}
			blocked[nblocked] = e.c
			nblocked++
			continue
		}
		if !e.c.claim.CompareAndSwap(0, int32(self.id)+1) {
			if p.scanClaimHook != nil {
				p.scanClaimHook(e.c)
			}
			// The claim is in flight elsewhere. Block the client for the
			// rest of the scan: the holder may release mid-scan (claim
			// stores don't take the pool mutex), and claiming a later
			// entry of this client after that would violate its FIFO.
			if nblocked == scanBlockMax {
				break
			}
			blocked[nblocked] = e.c
			nblocked++
			continue
		}
		out := *e
		copy(p.q[i:], p.q[i+1:])
		p.q = p.q[:len(p.q)-1]
		return out, true
	}
	return poolEntry{}, false
}

// requeue returns a parked entry to the pool. The caller still holds the
// client's claim, so no scan can take a later entry of the same client
// while we decide where to put it: at the tail when this is the client's
// only pooled entry (deferring it cannot reorder the client), else at the
// front (it must stay ahead of the client's later entries).
//
//qvet:noalloc
func (p *stealPool) requeue(e poolEntry) {
	p.mu.Lock()
	sole := true
	for i := p.head; i < len(p.q); i++ {
		if p.q[i].c == e.c {
			sole = false
			break
		}
	}
	if sole {
		if p.head == len(p.q) {
			p.q = p.q[:0]
			p.head = 0
		}
		p.q = append(p.q, e)
	} else if p.head > 0 {
		p.head--
		p.q[p.head] = e
	} else {
		p.q = append(p.q, poolEntry{})
		copy(p.q[1:], p.q)
		p.q[0] = e
	}
	p.mu.Unlock()
}

// drain empties the pool and returns how many entries it removed — the
// zombie-recovery path discarding work a dead frame will never commit.
func (p *stealPool) drain() int {
	p.mu.Lock()
	n := len(p.q) - p.head
	p.q = p.q[:0]
	p.head = 0
	p.mu.Unlock()
	return n
}

// runStealPhase executes pooled requests until every entry this worker
// pooled has completed: its own pool head-first, then steals from the
// other workers. It is the worker's replacement for the inline execution
// of the static design, sitting between the receive drain and the
// request barrier.
//
//qvet:phase=exec
func (s *Parallel) runStealPhase(w *worker) {
	for !w.zombie.Load() && !s.stopping() {
		if e, ok := w.pool.take(w, false, s.activeRegionHints(w)); ok {
			s.runPoolEntry(w, e)
			continue
		}
		if e, ok := s.stealWork(w); ok {
			s.runPoolEntry(w, e)
			continue
		}
		if w.outstanding.Load() == 0 && s.totalOutstanding() == 0 && s.fc.allDrained() {
			// Nothing left to execute anywhere and nobody can pool more:
			// the time this worker would have idled at the request
			// barrier was spent above, executing other workers' requests.
			return
		}
		// Work remains (or may still be pooled by a participant that has
		// not finished its receive drain) but none is claimable right
		// now. Yield and re-check; if an executor truly wedges holding a
		// claim, the watchdog sees this worker's stale request-phase
		// stamp and abandons it out of the spin.
		runtime.Gosched()
	}
}

// totalOutstanding sums the live workers' uncommitted pooled entries —
// the frame-wide amount of request work still to execute. While it is
// nonzero, a worker whose own pool is drained keeps scanning for steals
// instead of parking at the request barrier (the lock wall's idle share,
// which this scheduler exists to convert into execution). Zombies are
// excluded: their leftover counts are torn down by their own recovery.
func (s *Parallel) totalOutstanding() int64 {
	var n int64
	for _, o := range s.workers {
		if !o.zombie.Load() {
			n += o.outstanding.Load()
		}
	}
	return n
}

// stealWork scans the other workers' pools for a steal candidate,
// starting after this worker's id so victims rotate. Zombie victims are
// skipped: their pools are torn down by their own recovery path.
//
//qvet:phase=exec
func (s *Parallel) stealWork(w *worker) (poolEntry, bool) {
	avoid := s.activeRegionHints(w)
	n := len(s.workers)
	for i := 1; i < n; i++ {
		v := s.workers[(w.id+i)%n]
		if v.zombie.Load() {
			continue
		}
		if e, ok := v.pool.take(w, true, avoid); ok {
			return e, true
		}
	}
	return poolEntry{}, false
}

// activeRegionHints unions the leaf masks other workers have published
// for the requests they are executing right now — the conflict-awareness
// input of every pool scan. Zombies are skipped: an abandoned worker
// wedged mid-execution never clears its published mask, and honoring it
// would make every healthy worker defer against the corpse forever.
func (s *Parallel) activeRegionHints(w *worker) uint64 {
	var m uint64
	for _, o := range s.workers {
		if o != w && !o.zombie.Load() {
			m |= o.activeHint.Load()
		}
	}
	return m
}

// claimForRemoval wrests the client's execution claim from the stealing
// scheduler before the client's entity is freed. Freeing recycles the
// entity slot, and a pooled executor reads its entity before taking any
// region lock (ExecuteMove's pre-lock bounding-box read — safe under
// static assignment, where only the owning thread ever ran the client's
// requests), so removal must not overlap an in-flight execution. Winning
// the claim excludes executors; setting gone before releasing it makes
// every later claimant complete the client's remaining pooled entries
// without touching the entity. A caller that already holds the claim —
// panic containment evicting the client whose request it was executing —
// proceeds directly; its normal completion path releases the claim after
// the eviction. Returns false without removing when the engine is
// stopping, or when the claim holder does not release within
// claimRemovalTimeout: a healthy executor holds a claim for one request
// (microseconds, or a bounded region-lock wait), so a hold that long
// means the executor is wedged — with the watchdog off
// (WatchdogDeadline=0) nothing will ever break it, and spinning on
// would just wedge this worker too. The caller skips the removal; the
// periodic paths (stale sweep) retry on later frames.
func (s *session) claimForRemoval(ln *lane, c *client) bool {
	if !s.stealing {
		return true
	}
	me := int32(ln.id) + 1
	var deadline time.Time
	for !c.claim.CompareAndSwap(0, me) {
		if c.claim.Load() == me {
			c.gone.Store(true)
			return true
		}
		if s.stopping() {
			return false
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(claimRemovalTimeout)
		} else if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	c.gone.Store(true)
	c.claim.Store(0)
	return true
}

// claimRemovalTimeout bounds how long a removal path will wait for an
// executor to release a client's claim before giving up on the removal.
// Generous against descheduling and contended blocking acquires, tiny
// against the alternative: an executor wedged forever (watchdog
// disabled) converting the removing worker into a second stuck thread.
const claimRemovalTimeout = 100 * time.Millisecond

// runPoolEntry executes one pooled entry, handling the park protocol and
// the completion accounting. The claim is released only after the entry
// is back in a pool (parked) or fully committed, and the owner's
// outstanding count is decremented last — the release/acquire pair that
// orders a thief's client-state writes before the owner's reply phase.
//
//qvet:phase=exec
func (s *Parallel) runPoolEntry(w *worker, e poolEntry) {
	if s.safeExecPoolEntry(w, e) {
		s.parkPoolEntry(w, e)
		return
	}
	e.c.claim.Store(0)
	s.workers[e.owner].outstanding.Add(-1)
}

// parkPoolEntry returns a parked entry to its owner's pool — unless the
// owner was abandoned, in which case its recovery has drained (or is
// about to drain) that pool and a requeue would smuggle a stale
// previous-frame entry into the owner's next frame. Such entries
// complete as drops instead: claim released, outstanding settled — the
// same accounting the recovery drain applies to the entries it did find
// in the pool (a claimed entry is never pool-resident, so the two paths
// can't double-settle). The residual race — recovery finishes and
// clears the zombie flag before this check — is closed by the owner's
// frame-start leftover drain (workerLoop): the park happens-before the
// parking worker's request barrier in the dead frame, which
// happens-before the recovered owner rejoins a later frame.
//
//qvet:phase=exec
func (s *Parallel) parkPoolEntry(w *worker, e poolEntry) {
	owner := s.workers[e.owner]
	if owner.zombie.Load() {
		e.c.claim.Store(0)
		owner.outstanding.Add(-1)
		return
	}
	w.bd.StealConflicts++
	e.parks++
	owner.pool.requeue(e)
	e.c.claim.Store(0)
}

// safeExecPoolEntry contains a panic in a move execution to the client
// that caused it; the executing worker — thief or owner, pooled or
// inline — recovers, and the served client is evicted. A panic counts as
// completed (not parked), so the deferred accounting in runPoolEntry
// still releases the claim and the barrier.
//
//qvet:phase=exec
func (s *Parallel) safeExecPoolEntry(w *worker, e poolEntry) (parked bool) {
	defer s.recoverWorker(w, "request")
	// A panic unwinds past execPoolEntry's own hint clear, and a stale
	// nonzero mask would keep other workers deferring against an
	// execution that no longer exists.
	defer w.activeHint.Store(0)
	return s.execPoolEntry(w, e)
}

// execPoolEntry is the parallel engine's one move executor: admission,
// watchdog publication, the guarded execution, and the commit, plus the
// try-first acquisition that makes pooled work park instead of block
// while the entry has park budget left. It separates exec time from lock
// time (the lock component accrues inside the timed provider during the
// call; the difference is pure execution). Reports parked=true when the
// entry must be retried (no side effects were applied).
//
//qvet:phase=exec
func (s *Parallel) execPoolEntry(w *worker, e poolEntry) (parked bool) {
	c := e.c
	// The watchdog deadline measures a single request, not the whole
	// phase: a worker that executes many requests in one frame is busy,
	// not wedged, and the wedge record must name the request that
	// actually stalled.
	w.phaseStart.Store(time.Now().UnixNano())
	ent := s.admitMove(&w.lane, c, &e.m)
	if ent == nil {
		return false
	}
	if w.zombie.Load() {
		// The watchdog abandoned this worker while the request sat in the
		// pre-exec seam: the frame has moved on without it, and executing
		// the stale command now would write into frames that no longer
		// expect this thread. Drop it; zombieRecover owns the cleanup.
		w.serving.Store(0)
		return false
	}
	var stats locking.AcquireStats
	var mask uint64
	w.lockCtx.Stats = &stats
	w.lockCtx.LeafMask = &mask
	w.lockCtx.TryFirst = e.parks < maxStealParks
	w.activeHint.Store(e.hint)

	lockBefore := w.bd.Ns[metrics.CompLock]
	t0 := time.Now()
	res := s.executePoolMoveGuarded(w, c, &e.m, ent)
	span := time.Since(t0).Nanoseconds()
	w.lockCtx.TryFirst = false
	w.activeHint.Store(0)
	lockDelta := w.bd.Ns[metrics.CompLock] - lockBefore
	w.serving.Store(0)
	if res.Parked {
		return true
	}
	if exec := span - lockDelta; exec > 0 {
		w.bd.Charge(metrics.CompExec, exec)
		w.frameExecNs += exec
		// Per-client load for the balancer, decayed at each rebalance so it
		// tracks recent cost. It names the serving client: the cost charges
		// the client whose request this was, never the thief that happened
		// to execute it.
		c.loadNs.Add(exec)
		if e.owner != w.id {
			w.bd.Steals++
			w.bd.StealsNs += exec
		}
	}
	s.appendEvents(res.Events)
	// Frame instrumentation stays with the executing worker — it records
	// what each thread did, and the thief did this work.
	w.frameReqs++
	w.frameLeafMask |= mask
	w.frameLockOps += stats.LeafLockOps
	if mask != 0 {
		c.leafHint.Store(mask)
	}
	return false
}

// executePoolMoveGuarded runs the move and, unless it parked, commits the
// client's reply state inside the same world-guard read section (see
// worldGuard): the commit may come from a thief, and in degraded
// (zombie-outstanding) mode the owner's reply pass synchronizes with
// concurrent request work only through the world guard. The deferred
// unlock keeps the guard panic-safe: a panic in game code unwinds through
// here before recoverWorker runs.
//
//qvet:phase=exec
func (s *Parallel) executePoolMoveGuarded(w *worker, c *client, m *protocol.Move, ent *entity.Entity) game.MoveResult {
	s.worldGuard.RLock()
	defer s.worldGuard.RUnlock()
	res := s.world.ExecuteMove(ent, &m.Cmd, &w.lockCtx)
	if !res.Parked {
		s.commitMove(&w.lane, c, m)
	}
	return res
}

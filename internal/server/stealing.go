package server

import (
	"runtime"
	"sync"
	"time"

	"qserve/internal/entity"
	"qserve/internal/game"
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

// poolEntry is the live instantiation of the shared pool entry: the
// client and its move command, by value.
type poolEntry = StealEntry[*client, protocol.Move]

// stealPool is one worker's pool: the shared scheduler (stealpool.go)
// behind a mutex, since the owner and thieves reach it concurrently, with
// the per-client claim taken by compare-and-swap.
type stealPool struct {
	mu sync.Mutex
	q  StealPool[*client, protocol.Move]

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

//qvet:noalloc
func (p *stealPool) push(e poolEntry) {
	p.mu.Lock()
	p.q.Push(e)
	p.mu.Unlock()
}

// take claims and removes the first entry the scan rules let self run.
// Claims are released without the pool mutex (runPoolEntry, after commit
// or park), which is why a refused claim blocks the client for the rest
// of the scan.
//
//qvet:noalloc
func (p *stealPool) take(self *worker, asThief bool, avoid uint64) (poolEntry, bool) {
	me := int32(self.id) + 1
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.q.Take(asThief, avoid, func(c *client) bool {
		if c.claim.CompareAndSwap(0, me) {
			return true
		}
		if p.scanClaimHook != nil {
			p.scanClaimHook(c)
		}
		return false
	})
}

//qvet:noalloc
func (p *stealPool) requeue(e poolEntry) {
	p.mu.Lock()
	p.q.Requeue(e)
	p.mu.Unlock()
}

func (p *stealPool) drain() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.q.Drain()
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
	e.Client.claim.Store(0)
	s.workers[e.Owner].outstanding.Add(-1)
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
	owner := s.workers[e.Owner]
	if owner.zombie.Load() {
		e.Client.claim.Store(0)
		owner.outstanding.Add(-1)
		return
	}
	w.bd.StealConflicts++
	e.Parks++
	owner.pool.requeue(e)
	e.Client.claim.Store(0)
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
	c := e.Client
	// The watchdog deadline measures a single request, not the whole
	// phase: a worker that executes many requests in one frame is busy,
	// not wedged, and the wedge record must name the request that
	// actually stalled.
	w.phaseStart.Store(time.Now().UnixNano())
	ent := s.admitMove(&w.lane, c, &e.Move)
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
	var mask uint64
	w.lockCtx.LeafMask = &mask
	w.lockCtx.TryFirst = e.Parks < MaxStealParks
	w.activeHint.Store(e.Hint)

	lockBefore := w.bd.Ns[metrics.CompLock]
	t0 := time.Now()
	res := s.executePoolMoveGuarded(w, c, &e.Move, ent)
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
		// Per-client load for the balancer, decayed at each rebalance so it
		// tracks recent cost. It names the serving client: the cost charges
		// the client whose request this was, never the thief that happened
		// to execute it.
		c.loadNs.Add(exec)
		if e.Owner != w.id {
			w.bd.Steals++
			w.bd.StealsNs += exec
		}
	}
	s.appendEvents(res.Events)
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

package server

import (
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qserve/internal/areanode"
	"qserve/internal/balance"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/transport"
)

// Parallel is the multithreaded server of §3: a fixed pool of worker
// goroutines created at start, each owning a datagram endpoint and a
// static subset of the clients, synchronized by the frame controller's
// global barriers and by region locks over the areanode tree.
type Parallel struct {
	session
	fc      *frameCtl
	prov    *locking.MutexProvider
	workers []*worker

	// Dynamic load balancing (nil/unused when cfg.Balance is off). The
	// session's mux sits between the endpoints and the workers so the
	// master can re-route a migrated client's datagrams; the balancer
	// itself is only touched from masterCleanup, which the frame controller
	// makes exclusive.
	bal        *balance.Balancer
	migrations atomic.Int64
	balClients []*client
	balLoads   []int64
	balThreads []int

	frameT0 time.Time // frame start stamp; master writes, cleanup reads (fc-ordered)

	// Failure-model state: wedges counts watchdog detections; wedgeLog
	// keeps the structured records.
	wedges   atomic.Int64
	wedgeMu  sync.Mutex
	wedgeLog []WedgeRecord

	// pendingEvict holds clients whose eviction was decided in the reply
	// phase (a reply-side panic), where removing the player would race the
	// other threads' lockless snapshot reads. masterCleanup — single
	// threaded, at the barrier — performs the actual evictions.
	pendingMu    sync.Mutex
	pendingEvict []*client

	// vis coordinates the once-per-frame visibility-index build that the
	// workers partition among themselves at the reply barrier.
	vis *visBuilder
}

// WedgeRecord describes one watchdog detection: which worker was stuck,
// in which phase, for how long, and — when known — the client whose
// request it was serving.
type WedgeRecord struct {
	Worker    int
	Phase     int32 // wpRequest or wpReply
	Frame     uint64
	StuckFor  time.Duration
	ClientID  uint16
	HasClient bool
}

// worker is one server thread: a lane plus the parallel engine's locking,
// stealing and watchdog state.
type worker struct {
	lane

	lockCtx game.LockContext

	// Work-stealing state (Config.Stealing). pool holds this worker's
	// clients' move commands for the current frame; poolIdx stamps their
	// arrival order; outstanding counts pooled entries not yet executed
	// (by anyone) — the worker's request barrier waits for it to reach
	// zero. activeHint publishes the leaf mask of the request being
	// executed right now so other workers' steal scans avoid conflicts.
	pool        stealPool
	poolIdx     int
	outstanding atomic.Int64
	activeHint  atomic.Uint64

	// Watchdog publication: the phase this worker is executing (wpIdle
	// when at a barrier or in select) and when it entered it; the lane's
	// serving field names the client. phaseStart is written before phase,
	// so a non-idle phase always pairs with a fresh stamp.
	phase      atomic.Int32
	phaseStart atomic.Int64
}

// Watchdog-visible worker phases.
const (
	wpIdle int32 = iota
	wpRequest
	wpReply
)

func (w *worker) beginPhase(p int32) {
	w.phaseStart.Store(time.Now().UnixNano())
	w.phase.Store(p)
}

func (w *worker) endPhase() { w.phase.Store(wpIdle) }

// timedProvider wraps the shared mutex provider, charging acquisition
// wall time to the worker's lock component, split by leaf/parent — the
// live analogue of the Pentium-counter instrumentation.
type timedProvider struct {
	inner locking.Provider
	tree  *areanode.Tree
	bd    *metrics.Breakdown
}

func (tp *timedProvider) LockNode(n int32) {
	t0 := time.Now()
	tp.inner.LockNode(n)
	tp.bd.ChargeLock(time.Since(t0).Nanoseconds(), tp.tree.Node(n).IsLeaf())
}

func (tp *timedProvider) UnlockNode(n int32) { tp.inner.UnlockNode(n) }

// NewParallel builds a parallel server. Call Start to spawn the threads.
func NewParallel(cfg Config) (*Parallel, error) {
	if err := cfg.fill(true); err != nil {
		return nil, err
	}
	s := &Parallel{
		fc:   newFrameCtl(),
		prov: locking.NewMutexProvider(cfg.World.Tree.NumNodes()),
		vis:  newVisBuilder(),
	}
	s.init(cfg)
	// With one worker there is nobody to steal from and the pool
	// indirection is pure overhead.
	s.stealing = cfg.Stealing && cfg.Threads > 1
	for i := 0; i < cfg.Threads; i++ {
		w := &worker{}
		w.id = i
		w.conn = cfg.Conns[i]
		w.scratch = newFrameScratch()
		w.locker = &locking.RegionLocker{
			Tree:     s.world.Tree,
			Provider: &timedProvider{inner: s.prov, tree: s.world.Tree, bd: &w.bd},
		}
		w.lockCtx = game.LockContext{
			Locker:   w.locker,
			Strategy: cfg.Strategy,
		}
		s.workers = append(s.workers, w)
		s.lanes = append(s.lanes, &w.lane)
	}
	if cfg.Balance.Enabled && cfg.Threads > 1 {
		// Interpose the mux so client→thread routing can change at
		// runtime; each worker reads from its mux port instead of the raw
		// endpoint. Replies still leave through the per-thread endpoints.
		s.mux = transport.NewMux(cfg.Conns)
		for i, w := range s.workers {
			w.conn = s.mux.Port(i)
		}
		s.bal = balance.New(cfg.Balance)
	}
	if rs := cfg.Restore; rs != nil {
		s.fc.setFrame(rs.Frame + 1)
		s.restore(rs)
	}
	return s, nil
}

// Start launches the worker pool ("we create all threads at
// initialization time").
func (s *Parallel) Start() {
	s.started = time.Now()
	s.lastTick = s.cfg.timeNow()
	s.frameT0 = s.started
	for _, w := range s.workers {
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			s.workerLoop(w)
		}(w)
	}
	if s.cfg.WatchdogDeadline > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
}

// Wedges returns a copy of the watchdog's detection records.
func (s *Parallel) Wedges() []WedgeRecord {
	s.wedgeMu.Lock()
	defer s.wedgeMu.Unlock()
	return append([]WedgeRecord(nil), s.wedgeLog...)
}

// workerLoop is Figure 3 for one thread.
func (s *Parallel) workerLoop(w *worker) {
	for {
		// Select: block for a request on this thread's endpoint.
		t0 := time.Now()
		n, from, err := w.conn.Recv(w.scratch.recvBuf, s.cfg.SelectTimeout)
		w.bd.Charge(metrics.CompIdle, time.Since(t0).Nanoseconds())
		if s.stopping() {
			return
		}
		if err == transport.ErrTimeout {
			continue
		}
		if err != nil {
			return // endpoint closed
		}
		s.bytesIn.Add(int64(n))

		role := s.fc.join(w.id)
		for role == roleMissed {
			// Too late for this frame: inter-frame wait for the frame
			// end signal, then retry ("they are guaranteed to be part of
			// the execution of the next server frame").
			t0 = time.Now()
			s.fc.waitFrameEnd()
			w.bd.Charge(metrics.CompInterWait, time.Since(t0).Nanoseconds())
			role = s.fc.join(w.id)
		}

		if role == roleMaster {
			if d := s.cfg.BatchDelay; d > 0 {
				// Request batching (§5.2 future work): hold the frame
				// open so more threads and requests join it. Deliberate
				// idling, not synchronization wait — as in select.
				t0 = time.Now()
				time.Sleep(d)
				w.bd.Charge(metrics.CompIdle, time.Since(t0).Nanoseconds())
			}
			s.frameT0 = time.Now()
			s.runWorldUpdate(w)
			s.fc.openRequests()
		} else {
			t0 = time.Now()
			ok := s.fc.waitRequestsOpen(w.id)
			w.bd.Charge(metrics.CompInterWait, time.Since(t0).Nanoseconds())
			if !ok {
				s.zombieRecover(w)
				continue
			}
		}

		// Request phase: the packet select returned (still in the receive
		// buffer — nothing above touches it), then drain the queue. The
		// zombie poll lets an abandoned worker stop mid-drain instead of
		// racing the frame that moved on without it. With stealing on, the
		// drain only pools move commands (connection traffic is still
		// handled inline); the pooled work executes in the steal phase
		// below, overlapped with other workers still draining.
		w.poolIdx = 0
		if s.stealing {
			// Leftover pool entries at frame start are stale by
			// construction (a healthy steal phase only ends with every
			// pool empty): a thief parked a stolen entry after this
			// worker's zombie recovery had already drained the pool and
			// cleared the flag. Drop them — their frame is dead — and
			// settle the barrier arithmetic they still hold.
			if dropped := w.pool.drain(); dropped > 0 {
				w.outstanding.Add(-int64(dropped))
			}
		}
		w.beginPhase(wpRequest)
		s.safeProcessPacket(w, w.scratch.recvBuf[:n], from)
		for !w.zombie.Load() {
			t0 = time.Now()
			n, from, err = w.conn.Recv(w.scratch.recvBuf, 0)
			w.bd.Charge(metrics.CompRecv, time.Since(t0).Nanoseconds())
			if err != nil {
				break // queue empty
			}
			s.bytesIn.Add(int64(n))
			s.safeProcessPacket(w, w.scratch.recvBuf[:n], from)
		}
		if s.stealing {
			s.fc.doneDraining(w.id)
			s.runStealPhase(w)
		}
		w.endPhase()

		// Intra-frame barrier before replies.
		t0 = time.Now()
		ok := s.fc.doneRequests(w.id)
		w.bd.Charge(metrics.CompIntraWait, time.Since(t0).Nanoseconds())
		if !ok {
			s.zombieRecover(w)
			continue
		}

		// Reply phase.
		t0 = time.Now()
		w.beginPhase(wpReply)
		s.safeSendReplies(w)
		w.endPhase()
		w.bd.Charge(metrics.CompReply, time.Since(t0).Nanoseconds())
		ok, promoted := s.fc.doneReply(w.id)
		if !ok {
			s.zombieRecover(w)
			continue
		}

		if role == roleMaster || promoted {
			// promoted: the master wedged mid-frame and this worker was the
			// last to finish replies — it inherits cleanup and frame end.
			t0 = time.Now()
			s.fc.waitAllReplied()
			s.masterCleanup(w)
			s.fc.endFrame()
			w.bd.Charge(metrics.CompInterWait, time.Since(t0).Nanoseconds())
		}
	}
}

// zombieRecover is the path a worker takes after discovering the
// watchdog abandoned it: unwind any locks a wedge left stranded, discard
// the pooled requests of the frame that moved on without it, evict the
// quarantined clients it condemned (their requests are what wedged it),
// clear the zombie mark, and return to the loop to rejoin the next
// frame. The worker evicts the clients *it quarantined* — not simply the
// ones it owns — because under stealing the request that wedged it may
// have been a stolen one; eviction runs here (not on the master) because
// it takes region locks the wedged thread itself may have been holding.
func (s *Parallel) zombieRecover(w *worker) {
	w.endPhase()
	w.serving.Store(0)
	w.activeHint.Store(0)
	released := w.locker.ReleaseAll()
	if dropped := w.pool.drain(); dropped > 0 {
		// The dropped entries were never executed; settle the barrier
		// arithmetic so next frame's outstanding count starts clean.
		// Entries of this pool claimed by live thieves are not in the
		// pool anymore: the thief either commits them normally or — on a
		// park while this worker is marked zombie — completes them as
		// drops (parkPoolEntry), settling their outstanding counts
		// itself. A park that slips in after this drain AND after the
		// zombie flag clears is swept by the frame-start leftover drain
		// in workerLoop before it could execute a frame late.
		w.outstanding.Add(-int64(dropped))
	}
	me := int32(w.id) + 1
	var evict []*client
	s.clients.forEach(func(c *client) {
		if !c.quarantined.Load() {
			return
		}
		by := c.quarantinedBy.Load()
		if by == me || (by == 0 && c.thread == w.id) {
			evict = append(evict, c)
		}
	})
	for _, c := range evict {
		s.evictClient(&w.lane, c, "request stalled the server")
	}
	w.zombie.Store(false)
	s.fc.acquit(w.id)
	log.Printf("server: thread %d recovered from abandonment (released %d locks, evicted %d quarantined clients)",
		w.id, released, len(evict))
}

// safeProcessPacket contains a panic in request handling to the client
// that caused it: stranded region locks are force-released, the client
// is evicted, and the worker continues its frame — a malformed or
// adversarial request must never take the server down.
func (s *Parallel) safeProcessPacket(w *worker, data []byte, from transport.Addr) {
	defer s.recoverWorker(w, "request")
	c, m := s.dispatch(&w.lane, data, from)
	if c == nil {
		return
	}
	if c.thread != w.id {
		// A command for a client another thread owns; a client's state —
		// sequence tracking, reply flags, baseline — is owned by one thread.
		// With the mux in place this happens transiently after a migration
		// (a datagram pumped before the routing update took effect): bounce
		// it to the owner's port so the command is executed, not lost. The
		// forward stamp freezes the client's assignment until the command
		// lands, so the datagram chases at most one migration. Without the
		// mux it is a client ignoring Accept.Addr — drop, as the static
		// design always did.
		if s.mux != nil {
			c.fwdFrame.Store(s.fc.frameNumber() + 1)
			s.mux.Forward(c.thread, data, from)
		}
		return
	}
	e := poolEntry{Client: c, Move: *m, Owner: w.id, Idx: w.poolIdx, Hint: c.leafHint.Load()}
	if s.stealing {
		// Stamp the command with its commit order and pool it; outstanding
		// gates the worker's request barrier, which passes only when every
		// entry it pooled this frame has been executed (by anyone).
		w.poolIdx++
		w.outstanding.Add(1)
		w.pool.push(e)
		return
	}
	// Static assignment: the owner executes inline, through the same
	// executor with the entry's park budget spent — a blocking first
	// acquire, so it never parks.
	e.Parks = MaxStealParks
	s.safeExecPoolEntry(w, e)
}

// safeSendReplies is the reply-phase analogue. A panic skips the rest of
// the thread's reply pass for this frame (those clients simply see one
// dropped snapshot) but the barrier protocol continues undisturbed.
// While a zombie is outstanding the pass holds the world guard
// exclusively: its snapshot reads are normally barrier-protected, but an
// abandoned worker waking mid-request writes outside the barrier.
func (s *Parallel) safeSendReplies(w *worker) {
	defer s.recoverWorker(w, "reply")
	if s.fc.hasZombies() {
		s.worldGuard.Lock()
		defer s.worldGuard.Unlock()
	}
	// Build (or help build) the frame's shared visibility index first.
	// Every worker passes through here after the request barrier, so the
	// encode shards are split across all threads; acquire wall time is
	// the worker's share of the cache build (idle waiting included).
	frame := s.fc.frameNumber()
	buildT0 := time.Now()
	vi := s.vis.acquire(frame, s.world)
	w.bd.SnapBuildNs += time.Since(buildT0).Nanoseconds()
	s.sendReplies(&w.lane, vi, uint32(frame))
}

func (s *Parallel) recoverWorker(w *worker, phase string) {
	r := recover()
	if r == nil {
		return
	}
	released := w.locker.ReleaseAll()
	w.bd.PanicsRecovered++
	var victim *client
	if cid := w.serving.Swap(0); cid > 0 {
		victim = s.clients.lookupID(uint16(cid - 1))
	}
	if victim != nil {
		victim.quarantined.Store(true)
		victim.quarantinedBy.Store(int32(w.id) + 1)
		if phase == "request" {
			// Request phase: world writes are lock-protected, evict inline.
			s.evictClient(&w.lane, victim, "server error handling your request")
		} else {
			// Reply phase: removing the player writes the world while the
			// other threads read it locklessly. Defer to masterCleanup,
			// which runs single-threaded at the barrier.
			s.pendingMu.Lock()
			s.pendingEvict = append(s.pendingEvict, victim)
			s.pendingMu.Unlock()
		}
	}
	log.Printf("server: thread %d recovered panic in %s phase: %v (released %d locks, evicted client: %v)",
		w.id, phase, r, released, victim != nil)
}

// watchdog is the frame-pipeline monitor: it fires when a worker sits in
// one phase past the configured deadline, records the wedge, and — when
// quarantine is enabled — abandons the worker at the frame barriers so
// the remaining threads keep serving their clients. It cannot rescue the
// wedged OS thread itself (Go offers no way to kill a goroutine), and it
// never force-releases a truly hung thread's region locks — see
// DESIGN.md §7 for the documented limitations.
func (s *Parallel) watchdog() {
	defer s.wg.Done()
	deadline := s.cfg.WatchdogDeadline
	tick := deadline / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	// One detection per wedge: keyed by the phase-start stamp, which the
	// execution paths refresh per request — so the dedup is per stalled
	// request, and a worker that wedges on a second request after
	// surviving a first is detected again.
	fired := make([]int64, len(s.workers))
	for {
		select {
		case <-s.stop:
			return
		case <-tk.C:
		}
		now := time.Now().UnixNano()
		for _, w := range s.workers {
			ph := w.phase.Load()
			if ph == wpIdle {
				continue
			}
			start := w.phaseStart.Load()
			if now-start < int64(deadline) || fired[w.id] == start {
				continue
			}
			fired[w.id] = start
			cid := w.serving.Load()
			rec := WedgeRecord{
				Worker:   w.id,
				Phase:    ph,
				Frame:    s.fc.frameNumber(),
				StuckFor: time.Duration(now - start),
			}
			if cid > 0 {
				rec.ClientID = uint16(cid - 1)
				rec.HasClient = true
			}
			s.wedges.Add(1)
			s.wedgeMu.Lock()
			s.wedgeLog = append(s.wedgeLog, rec)
			s.wedgeMu.Unlock()
			phName := "request"
			if ph == wpReply {
				phName = "reply"
			}
			log.Printf("server: watchdog: thread %d wedged in %s phase for %v (frame %d, serving client %d)",
				w.id, phName, rec.StuckFor, rec.Frame, int32(cid)-1)
			// Quarantine is confined to request-phase wedges: a reply-phase
			// zombie would resume lockless world reads that nothing can
			// retroactively synchronize with later frames' writes (the
			// request side holds the world guard; the reply side, by
			// design, holds nothing). A wedged reply pass is recorded but
			// stalls the frame — see DESIGN.md §7.
			if s.cfg.QuarantineWedged && ph == wpRequest {
				// Quarantine the suspect client and mark the worker before
				// abandoning, so a zombie that wakes immediately cannot miss
				// either flag; both are rolled back if the frame controller
				// finds the worker already past the request barrier (the
				// observation above is unsynchronized and may be stale).
				var qc *client
				if cid > 0 {
					qc = s.clients.lookupID(uint16(cid - 1))
				}
				if qc != nil {
					// Attribute the quarantine to the executing worker: with
					// stealing, the stalled request's client may belong to a
					// different thread, and recovery must evict the clients
					// this worker condemned, not the ones it owns.
					qc.quarantined.Store(true)
					qc.quarantinedBy.Store(int32(w.id) + 1)
				}
				w.zombie.Store(true)
				if !s.fc.abandonRequestStalled(w.id) {
					w.zombie.Store(false)
					if qc != nil {
						qc.quarantinedBy.Store(0)
						qc.quarantined.Store(false)
					}
				}
			}
		}
	}
}

// runWorldUpdate performs the master's world-physics phase. Its writes
// are lockless by the barrier; in degraded mode (outstanding zombie) it
// holds the world guard exclusively against a waking zombie's request.
//
//qvet:phase=physics
func (s *Parallel) runWorldUpdate(w *worker) {
	if s.fc.hasZombies() {
		s.worldGuard.Lock()
		defer s.worldGuard.Unlock()
	}
	s.worldTick(&w.lane)
}

// masterCleanup runs after all replies, single-threaded at the barrier:
// the engine's barrier-deferred work first — evictions decided during
// the reply phase, the balancer, queued reconnects — then the shared
// frame-end sweep.
func (s *Parallel) masterCleanup(w *worker) {
	frame := s.fc.frameNumber()

	s.pendingMu.Lock()
	pending := s.pendingEvict
	s.pendingEvict = nil
	s.pendingMu.Unlock()
	for _, c := range pending {
		s.evictClient(&w.lane, c, "server error handling your request")
	}

	if s.bal != nil {
		s.rebalance()
	}
	s.applyResumes()

	s.endFrame(&w.lane, frame, s.frameT0, s.fc.hasZombies())
}

// rebalance runs at the frame barrier, the only point where no region
// lock is held and no command is in flight: every participant has passed
// doneReply, non-participants are blocked in Recv or waitFrameEnd, and
// the frame controller's mutex orders this frame's c.thread writes
// before any later frame's reads. Migrating a client is therefore three
// plain assignments: the thread field, the mux route, and nothing else —
// the reply baseline, sequence state, and backlog travel with the client
// struct and must NOT be reset (a migration is invisible on the wire).
func (s *Parallel) rebalance() {
	cs := s.balClients[:0]
	s.clients.forEach(func(c *client) { cs = append(cs, c) })
	sort.Slice(cs, func(i, j int) bool { return cs[i].id < cs[j].id })
	s.balClients = cs

	loads, threads := s.balLoads[:0], s.balThreads[:0]
	for _, c := range cs {
		loads = append(loads, c.loadNs.Load())
		threads = append(threads, c.thread)
	}
	s.balLoads, s.balThreads = loads, threads

	migs := s.bal.Plan(loads, threads, len(s.workers))
	frame := s.fc.frameNumber() + 1
	applied := 0
	for _, mg := range migs {
		c := cs[mg.Client]
		// Clients owned by an abandoned (zombie) thread are frozen: the
		// wedged thread may still be straggling through its request phase,
		// and migrating its client under it would put two threads on one
		// client's state. Quarantined clients are pending eviction.
		// Restore-parked clients are frozen too: their load figure is
		// pre-crash history and their mux route must keep pointing at the
		// checkpointed thread until the reconnect handshake lands.
		if s.workers[c.thread].zombie.Load() || c.quarantined.Load() ||
			c.awaitingResume.Load() {
			continue
		}
		// A client with a forwarded datagram in flight is frozen: migrating
		// it now would re-route the datagram again and let it chase the
		// assignment across barriers indefinitely. Stamps far older than
		// any plausible delivery mean the datagram was dropped — expire
		// them so the client does not stay pinned forever. The clear must
		// CAS against the stamp we judged stale: in degraded mode a
		// straggling zombie can forward (and re-stamp) concurrently with
		// this sweep, and a plain store would erase its fresh freeze.
		if f := c.fwdFrame.Load(); f != 0 {
			if !fwdFreezeExpired(f, frame) {
				continue
			}
			if !c.fwdFrame.CompareAndSwap(f, 0) {
				continue // re-stamped under us: freshly frozen again
			}
		}
		c.thread = mg.To
		if s.mux != nil {
			s.mux.Route(c.addr, mg.To)
		}
		if r := s.cfg.Record; r != nil {
			r.RecordMigrate(c.id, mg.To)
		}
		applied++
	}
	// Decay the load window so the balancer tracks recent cost: halving
	// gives an exponential moving sum with a few-frame horizon. Decay by
	// atomic subtraction, not store: a straggling zombie — or, with
	// stealing, a thief finishing a stolen request — may Add concurrently,
	// and a load-store pair would silently drop its charge and starve the
	// client's migration priority.
	for _, c := range cs {
		v := c.loadNs.Load()
		c.loadNs.Add(v>>1 - v)
	}
	s.migrations.Add(int64(applied))
}

// fwdFreezeFrames bounds the migration freeze of a client whose
// forwarded datagram never arrived (dropped on queue overflow): after
// this many frames the stamp is considered stale and expires.
const fwdFreezeFrames = 64

// fwdFreezeExpired reports whether a forward stamp is stale at the given
// rebalance frame (both in the stamp's frameNumber+1 coordinates). A
// stamp from the future — possible when a zombie straggler forwards just
// after endFrame advanced the counter past the sweep's snapshot — keeps
// the freeze: unsigned frame-f would otherwise wrap to a huge value and
// expire a freshly frozen client. Frame counters are uint64, so
// legitimate stamps never wrap within a server's lifetime.
func fwdFreezeExpired(stamp, frame uint64) bool {
	if stamp > frame {
		return false
	}
	return frame-stamp >= fwdFreezeFrames
}

// Breakdowns returns a copy of each thread's execution-time breakdown,
// with the engine-level watchdog detections folded into thread 0's copy
// so MergeThreads reports see them.
func (s *Parallel) Breakdowns() []metrics.Breakdown {
	out := s.session.Breakdowns()
	out[0].WedgesDetected += s.wedges.Load()
	return out
}

// Migrations returns how many client→thread migrations the balancer
// performed.
func (s *Parallel) Migrations() int64 { return s.migrations.Load() }

// Frames returns the number of completed server frames.
func (s *Parallel) Frames() uint64 { return s.fc.frameNumber() }

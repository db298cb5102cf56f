package server

import (
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qserve/internal/areanode"
	"qserve/internal/balance"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// Parallel is the live server engine. Threads: 0 is the paper's
// sequential server (Figure 1): one thread, no region locks, nothing
// added to request and reply processing. Threads: N is the multithreaded
// server of §3 — the same frame with a fixed pool of N worker goroutines
// created at start, each owning a datagram endpoint and a static subset
// of the clients, synchronized by the frame controller's global barriers
// and by region locks over the areanode tree. Threads: 1 is Fig. 4's
// "parallel code on one thread": one worker, with region locks.
type Parallel struct {
	session
	fc *frameCtl

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

// Sequential is the sequential server: the engine at Threads: 0.
type Sequential = Parallel

// NewSequential builds the sequential server, NewParallel at Threads: 0.
func NewSequential(cfg Config) (*Sequential, error) { cfg.Threads = 0; return NewParallel(cfg) }

// WedgeRecord describes one watchdog detection: which worker was stuck,
// in which phase, for how long, and — when known — the client whose
// request or reply it was serving.
type WedgeRecord struct {
	Worker    int
	Phase     int32 // wpRequest or wpReply
	Frame     uint64
	StuckFor  time.Duration
	ClientID  uint16
	HasClient bool
}

// String is the record's one-line report, the line a wedge crash writes
// to stderr.
func (r WedgeRecord) String() string {
	phase := "request"
	if r.Phase == wpReply {
		phase = "reply"
	}
	client := -1
	if r.HasClient {
		client = int(r.ClientID)
	}
	return fmt.Sprintf("server: watchdog: thread %d wedged in %s phase for %v (frame %d, serving client %d)",
		r.Worker, phase, r.StuckFor, r.Frame, client)
}

// WedgeExitCode is the process exit status of a watchdog crash: a wedged
// worker cannot be stopped from Go, so the server exits and its
// supervisor restarts it from the last checkpoint (DESIGN.md §7).
const WedgeExitCode = 3

// selectTimeout is how long a worker blocks in its select before
// re-checking for shutdown: it bounds how long Stop waits, nothing else.
const selectTimeout = 5 * time.Millisecond

// worker is one server thread's private state: its endpoint, its share
// of the execution-time breakdown, the buffers its request and reply
// processing reuse, and its locking, stealing and watchdog state.
type worker struct {
	id int
	// conn is the worker's receive side: the thread's endpoint, or its mux
	// port under load balancing. Replies leave through it too.
	conn transport.Conn
	// port is conn when it is a Mux port; nil when no Mux routes to it.
	port *transport.MuxPort
	bd   metrics.Breakdown
	// writer encodes control messages (send).
	writer protocol.Writer
	// scratch is the per-frame buffer set: the worker's own, or the one
	// in bufs. Nil only while a stepped engine has parked its buffers in
	// the shared pool (step.go).
	scratch *frameScratch
	// bufs is the set borrowed from Config.Shared; nil when the worker
	// owns its scratch.
	bufs *frameBufs

	// locker takes this worker's region locks. Nil at Threads: 0: spawns
	// and removals then run unguarded, exactly as a nil
	// game.LockContext.Locker runs moves lock-free.
	locker  *locking.RegionLocker
	lockCtx game.LockContext
	// entry is the move command being executed, and leafMask collects the
	// leaves it locks (lockCtx.LeafMask). Worker-owned, so executing a
	// command allocates neither.
	entry    poolEntry
	leafMask uint64

	// serving publishes the client whose request or reply the worker is
	// processing right now (id+1; 0 = none), for panic containment and
	// the watchdog.
	serving atomic.Int32

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

	// Watchdog publication, kept only while a watchdog is armed (watched):
	// the phase this worker is executing (wpIdle when at a barrier or in
	// select) and when it entered it; serving names the client.
	// phaseStart is written before phase, so a non-idle phase always pairs
	// with a fresh stamp.
	watched    bool
	phase      atomic.Int32
	phaseStart atomic.Int64
}

// Watchdog-visible worker phases.
const (
	wpIdle int32 = iota
	wpRequest
	wpReply
)

// setPhase publishes the phase w is entering, and when, for the
// watchdog. With none armed it does nothing: the stamp is a clock read.
func (w *worker) setPhase(p int32) {
	if w.watched {
		w.phaseStart.Store(time.Now().UnixNano())
		w.phase.Store(p)
	}
}

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

// NewParallel builds the engine. Call Start to spawn the threads, or
// StartStepped to drive frames from outside.
func NewParallel(cfg Config) (*Parallel, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Parallel{fc: newFrameCtl(), vis: newVisBuilder(nil)}
	s.cfg, s.world = cfg, cfg.World
	s.clients = newClientTable(cfg.MaxClients)
	s.stop = make(chan struct{})
	s.shed.init(&s.cfg)
	// With one worker there is nobody to steal from and the pool
	// indirection is pure overhead.
	s.stealing = cfg.Stealing && cfg.Threads > 1
	var prov *locking.MutexProvider
	if cfg.Threads > 0 {
		prov = locking.NewMutexProvider(cfg.World.Tree.NumNodes())
	}
	if cfg.Shared == nil {
		// Classic mode owns its buffers for life; with a shared pool they
		// are borrowed (step.go).
		s.vis.index = new(game.VisIndex)
	}
	for i, conn := range cfg.Conns {
		w := &worker{id: i, conn: conn, watched: cfg.WatchdogDeadline > 0}
		if cfg.Shared == nil {
			w.scratch = newFrameScratch()
		}
		if prov != nil {
			w.locker = &locking.RegionLocker{
				Tree:     s.world.Tree,
				Provider: &timedProvider{inner: prov, tree: s.world.Tree, bd: &w.bd},
			}
		}
		w.lockCtx = game.LockContext{Locker: w.locker, Strategy: cfg.Strategy, LeafMask: &w.leafMask}
		s.workers = append(s.workers, w)
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
	for _, w := range s.workers {
		// A worker behind a Mux, the engine's own or a lobby's, routes
		// the clients it owns through its port.
		w.port, _ = w.conn.(*transport.MuxPort)
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
	if s.cfg.Shared != nil {
		// The threaded loop blocks in Recv and can't park buffers at idle
		// points; borrow them once and keep them for the run.
		s.borrow()
	}
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

// workerLoop is Figure 3 for one thread: block in select, then run the
// frame the datagram opens.
func (s *Parallel) workerLoop(w *worker) {
	for {
		t0 := time.Now()
		n, from, err := w.conn.Recv(w.scratch.recvBuf, selectTimeout)
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
		s.runFrame(w, n, from)
	}
}

// runFrame is one server frame on worker w: join it, world physics (the
// master), request drain, reply phase, frame bookkeeping (the master).
// n > 0 is the length of a datagram from `from` already sitting in the
// receive buffer — the one the threaded loop blocked for; the stepped
// driver passes 0 and never blocks. It reports whether any datagram was
// processed.
func (s *Parallel) runFrame(w *worker, n int, from transport.Addr) (sawTraffic bool) {
	role := s.fc.join()
	for role == roleMissed {
		// Too late for this frame: inter-frame wait for the frame end
		// signal, then retry ("they are guaranteed to be part of the
		// execution of the next server frame").
		t0 := time.Now()
		s.fc.waitFrameEnd()
		w.bd.Charge(metrics.CompInterWait, time.Since(t0).Nanoseconds())
		role = s.fc.join()
	}

	if role == roleMaster {
		if d := s.cfg.Hooks.BatchDelay; d > 0 {
			// Request batching (§5.2 future work): hold the frame open so
			// more threads and requests join it. Deliberate idling, not
			// synchronization wait — as in select.
			t0 := time.Now()
			time.Sleep(d)
			w.bd.Charge(metrics.CompIdle, time.Since(t0).Nanoseconds())
		}
		s.frameT0 = time.Now()
		// World physics: lockless, by the barrier. It does not touch the
		// receive buffer, so the first datagram keeps until the request
		// phase.
		s.worldTick(w)
		s.fc.openRequests()
	} else {
		t0 := time.Now()
		s.fc.waitRequestsOpen()
		w.bd.Charge(metrics.CompInterWait, time.Since(t0).Nanoseconds())
	}

	// Request phase: receive and process requests until the queue is
	// empty. With stealing on, the drain only pools move commands
	// (connection traffic is still handled inline); the pooled work
	// executes in the steal phase below, overlapped with other workers
	// still draining.
	w.poolIdx = 0
	w.setPhase(wpRequest)
	for {
		if n > 0 {
			s.bytesIn.Add(int64(n))
			sawTraffic = true
			s.safeProcessPacket(w, w.scratch.recvBuf[:n], from)
		}
		t0 := time.Now()
		var err error
		n, from, err = w.conn.Recv(w.scratch.recvBuf, 0)
		w.bd.Charge(metrics.CompRecv, time.Since(t0).Nanoseconds())
		if err != nil {
			break // queue empty
		}
	}
	if s.stealing {
		s.fc.doneDraining()
		s.runStealPhase(w)
	}
	w.setPhase(wpIdle)

	// Intra-frame barrier before replies.
	t0 := time.Now()
	s.fc.doneRequests()
	w.bd.Charge(metrics.CompIntraWait, time.Since(t0).Nanoseconds())

	// Reply phase — only when someone can receive a reply. The
	// empty-server skip is what makes an idle match's tick cheap.
	if s.clients.count() > 0 {
		t0 = time.Now()
		w.setPhase(wpReply)
		s.safeSendReplies(w)
		w.setPhase(wpIdle)
		w.bd.Charge(metrics.CompReply, time.Since(t0).Nanoseconds())
	}
	s.fc.doneReply()

	if role == roleMaster {
		t0 = time.Now()
		s.fc.waitAllReplied()
		s.masterCleanup(w)
		s.fc.endFrame()
		w.bd.Charge(metrics.CompInterWait, time.Since(t0).Nanoseconds())
	}
	return sawTraffic
}

// safeProcessPacket contains a panic in request handling to the client
// that caused it: stranded region locks are force-released, the client
// is evicted, and the worker continues its frame — a malformed or
// adversarial request must never take the server down.
func (s *Parallel) safeProcessPacket(w *worker, data []byte, from transport.Addr) {
	defer s.recoverWorker(w, "request")
	c, m := s.dispatch(w, data, from)
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
		if p := s.workers[c.thread].port; p != nil {
			c.fwdFrame.Store(s.fc.frameNumber() + 1)
			p.Forward(data, from)
		}
		return
	}
	w.entry = poolEntry{Client: c, Move: *m, Owner: w.id, Idx: w.poolIdx, Hint: c.leafHint.Load()}
	if s.stealing {
		// Stamp the command with its commit order and pool it; outstanding
		// gates the worker's request barrier, which passes only when every
		// entry it pooled this frame has been executed (by anyone).
		w.poolIdx++
		w.outstanding.Add(1)
		w.pool.push(w.entry)
		return
	}
	// Static assignment: the owner executes inline, through the same
	// executor with the entry's park budget spent — a blocking first
	// acquire, so it never parks.
	w.entry.Parks = MaxStealParks
	s.safeExecPoolEntry(w, &w.entry)
}

// safeSendReplies is the reply-phase analogue. A panic skips the rest of
// the thread's reply pass for this frame (those clients simply see one
// dropped snapshot) but the barrier protocol continues undisturbed.
// The worker's reply batch is flushed on the way out, a panic included:
// the clients formed before it have advanced their baselines, so their
// snapshots leave in this frame.
func (s *Parallel) safeSendReplies(w *worker) {
	defer s.recoverWorker(w, "reply")
	defer w.flushReplies()
	// Build (or help build) the frame's shared visibility index first.
	// Every worker passes through here after the request barrier, so the
	// encode shards are split across all threads; acquire wall time is
	// the worker's share of the cache build (idle waiting included).
	frame := s.fc.frameNumber()
	buildT0 := time.Now()
	vi := s.vis.acquire(frame, s.world)
	w.bd.SnapBuildNs += time.Since(buildT0).Nanoseconds()
	s.sendReplies(w, vi, uint32(frame))
}

func (s *Parallel) recoverWorker(w *worker, phase string) {
	r := recover()
	if r == nil {
		return
	}
	released := 0
	if w.locker != nil {
		released = w.locker.ReleaseAll()
	}
	w.bd.PanicsRecovered++
	var victim *client
	if cid := w.serving.Swap(0); cid > 0 {
		victim = s.clients.lookupID(uint16(cid - 1))
	}
	if victim != nil {
		if phase == "request" {
			// Request phase: world writes are lock-protected, evict inline.
			s.evictClient(w, victim, "server error handling your request")
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
// one phase past the configured deadline. Go cannot stop a goroutine, so
// a wedged worker cannot be taken out of the frame; the server is
// crash-only instead (DESIGN.md §7). The first detection writes the
// record and every goroutine's stack to stderr and exits the process
// with WedgeExitCode, and the supervisor restarts it from the last
// checkpoint. Hooks.Wedged replaces the exit in tests.
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
	// execution paths refresh per request, so a seam that lets the server
	// live on sees each stalled request once.
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
			rec := WedgeRecord{
				Worker:   w.id,
				Phase:    ph,
				Frame:    s.fc.frameNumber(),
				StuckFor: time.Duration(now - start),
			}
			if cid := w.serving.Load(); cid > 0 {
				rec.ClientID = uint16(cid - 1)
				rec.HasClient = true
			}
			if h := s.cfg.Hooks.Wedged; h != nil {
				h(rec)
				continue
			}
			crashOnWedge(rec)
		}
	}
}

// crashOnWedge reports a wedge and every goroutine's stack on stderr,
// in the form an unrecovered panic prints them, then exits with
// WedgeExitCode.
func crashOnWedge(rec WedgeRecord) {
	fmt.Fprintln(os.Stderr, rec)
	pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
	os.Exit(WedgeExitCode)
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
		s.evictClient(w, c, "server error handling your request")
	}

	if s.bal != nil {
		s.rebalance()
	}
	s.applyResumes()

	s.endFrame(w, frame, s.frameT0)
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
		// Restore-parked clients are frozen: their load figure is
		// pre-crash history and their mux route must keep pointing at the
		// checkpointed thread until the reconnect handshake lands.
		if c.awaitingResume.Load() {
			continue
		}
		// A client with a forwarded datagram in flight is frozen: migrating
		// it now would re-route the datagram again and let it chase the
		// assignment across barriers indefinitely. Stamps far older than
		// any plausible delivery mean the datagram was dropped — expire
		// them so the client does not stay pinned forever. Only the request
		// phase stamps, so nothing races this clear.
		if f := c.fwdFrame.Load(); f != 0 {
			if !fwdFreezeExpired(f, frame) {
				continue
			}
			c.fwdFrame.Store(0)
		}
		c.thread = mg.To
		if p := s.workers[mg.To].port; p != nil {
			p.Route(c.key)
		}
		if r := s.cfg.Record; r != nil {
			r.RecordMigrate(c.id, mg.To)
		}
		applied++
	}
	// Decay the load window so the balancer tracks recent cost: halving
	// gives an exponential moving sum with a few-frame horizon. Every
	// executor is past the request barrier, so nothing charges loadNs
	// concurrently.
	for _, c := range cs {
		c.loadNs.Store(c.loadNs.Load() >> 1)
	}
	s.migrations.Add(int64(applied))
}

// fwdFreezeFrames bounds the migration freeze of a client whose
// forwarded datagram never arrived (dropped on queue overflow): after
// this many frames the stamp is considered stale and expires.
const fwdFreezeFrames = 64

// fwdFreezeExpired reports whether a forward stamp is stale at the given
// rebalance frame (both in the stamp's frameNumber+1 coordinates).
func fwdFreezeExpired(stamp, frame uint64) bool {
	return frame >= stamp+fwdFreezeFrames
}

// Migrations returns how many client→thread migrations the balancer
// performed.
func (s *Parallel) Migrations() int64 { return s.migrations.Load() }

// Frames returns the number of completed server frames.
func (s *Parallel) Frames() uint64 { return s.fc.frameNumber() }

package simserver

import (
	"fmt"
	"math/rand"

	"qserve/internal/balance"
	"qserve/internal/botclient"
	"qserve/internal/checkpoint"
	"qserve/internal/costmodel"
	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/geom"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/sim"
	"qserve/internal/worldmap"
)

// selectTimeoutNs is the virtual select timeout; like the live engine's,
// it only bounds how often an idle thread re-checks for shutdown.
const selectTimeoutNs = 5_000_000

// netDelayNs is the one-way client↔server latency added to response
// times: 0.15 ms, a switched 100 Mbit LAN.
const netDelayNs = 150_000

// clientFrameMs is the client frame duration: 30 fps ⇒ ~33 ms between a
// client's requests.
const clientFrameMs = 33

// reassignEveryNs is AssignRegion's reassignment period: one virtual
// second.
const reassignEveryNs = 1_000_000_000

// minWorldTickNs rate-limits the world-physics phase, as QuakeWorld's
// sv_mintic does: a frame whose master finds less than this much game
// time elapsed skips the physics update (the P stage costs nothing),
// keeping world processing under 5% of execution time at every player
// count, as the paper's baseline measurements report.
const minWorldTickNs = 12_000_000

// simClient is one automatic player: its entity, owning thread, pending
// reply state, and bot policy. Clients are not simulated contexts — their
// compute happens on client machines the server never sees — so they
// exist only as arrival streams plus decision functions.
type simClient struct {
	idx    int
	thread int
	ent    *entity.Entity
	nav    *botclient.Navigator
	rng    *rand.Rand
	src    *sim.PeriodicSource

	pending     bool
	lastArrival int64
	backlog     int // queued broadcast events awaiting the next reply
	replied     uint64
	baseline    server.Baseline // delta baseline, advanced by the pooled reply path

	// loadNs is the decayed execute-phase cost the balancer equalizes;
	// home/pinned implement the clustered skewed workload (Config.Cluster).
	loadNs int64
	home   geom.Vec3
	pinned bool

	// Work-stealing state (Config.Stealing). claimed marks an entry of
	// this client mid-execution, so pool scans skip the client and
	// per-client order is preserved; lastMask is the leaf mask of the
	// client's last committed move, the steal scans' conflict hint.
	claimed  bool
	lastMask uint64
}

type simRequest struct {
	client *simClient
	seq    int64
}

// worker is one simulated server thread's bookkeeping.
type simWorker struct {
	frameReqs    int
	frameMask    uint64
	frameLockOps int
	frameExecNs  int64
	// poolIdx stamps pooled entries with their arrival order under the
	// stealing scheduler (commit-order bookkeeping; reset per frame).
	poolIdx int
}

type engine struct {
	cfg   Config
	world *game.World
	model costmodel.Model
	// seq is the sequential server (Config.Threads 0), run as one
	// context with cfg.Threads 1: no locks, no region bookkeeping.
	seq bool

	machine   *sim.Sim
	ports     []*clientPort
	clients   []*simClient
	byThread  [][]*simClient
	nodeLocks []sim.Lock
	workers   []simWorker
	bds       []metrics.Breakdown
	replies   []server.ReplyScratch // per-thread pooled reply pipelines

	fc simFrameCtl

	// Request scheduling state (stealing.go): per-thread entry pools,
	// per-thread counts of pooled-but-uncommitted entries, and the leaf
	// mask each thread is currently executing in (the steal scans'
	// conflict-avoidance signal). The pools stay empty unless
	// Config.Stealing is on.
	stealQ      []server.StealPool[*simClient, desMove]
	outstanding []int
	activeMask  []uint64

	// Frame-coherent visibility index, built once per frame by the first
	// thread to enter its reply phase (procs run one at a time, so the
	// frame stamp needs no synchronization). Only charged when
	// cfg.IndexedSnapshots opts in (the visibility A/B study).
	vis      game.VisIndex
	visFrame uint64

	// pbs is non-nil when this run replays a recorded stream
	// (Config.Playback); it gates the ports to one in-flight item.
	pbs *playbackState

	frameEvents  int
	frameLog     *metrics.FrameLog
	resp         metrics.ResponseStats
	locks        LockAggregate
	requests     int64
	lastWorldNs  int64
	lastReassign int64
	endNs        int64
	trace        []PhaseSpan

	// Dynamic load balancing (nil when cfg.Balance is off); touched only
	// from masterCleanup, which one context runs at a time.
	bal        *balance.Balancer
	migrations int64
	balLoads   []int64
	balThreads []int
}

// span records a traced phase interval while tracing is active.
func (e *engine) span(p *sim.Proc, phase string, startNs int64) {
	if e.cfg.TraceFrames <= 0 || e.fc.frame >= uint64(e.cfg.TraceFrames) {
		return
	}
	if p.Now() == startNs {
		return
	}
	e.trace = append(e.trace, PhaseSpan{
		Thread: p.ID, Phase: phase, StartNs: startNs, EndNs: p.Now(),
	})
}

// clientPort is one server thread's receive queue: the merged request
// streams of the clients *currently* assigned to the thread. Membership
// is consulted on every operation so the dynamic assignment policy can
// migrate clients between frames; pending requests follow the client to
// its new thread (the live protocol would re-home the socket on
// reassignment).
type clientPort struct {
	e      *engine
	thread int
}

// Peek implements sim.Source.
func (p *clientPort) Peek() int64 {
	if ps := p.e.pbs; ps != nil {
		return ps.peek(p.thread)
	}
	best := int64(sim.Infinity)
	for _, c := range p.e.byThread[p.thread] {
		if t := c.src.Peek(); t < best {
			best = t
		}
	}
	return best
}

// Pop implements sim.Source.
func (p *clientPort) Pop() sim.Arrival {
	if ps := p.e.pbs; ps != nil {
		return ps.pop()
	}
	best := int64(sim.Infinity)
	var pick *simClient
	for _, c := range p.e.byThread[p.thread] {
		if t := c.src.Peek(); t < best {
			best = t
			pick = c
		}
	}
	return pick.src.Pop()
}

// Run executes one simulated experiment.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	world := cfg.World
	if world == nil {
		m := cfg.Map
		if m == nil {
			m = worldmap.MustGenerate(cfg.MapConfig)
		}
		maxEnts := len(m.Items) + len(m.Teleporters) + cfg.Players*4 + 64
		var err error
		world, err = game.NewWorld(game.Config{
			Map:           m,
			AreanodeDepth: cfg.AreanodeDepth,
			MaxEntities:   maxEnts,
			Seed:          cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
	}
	// Virtual time is work counters times constants fitted to the
	// exhaustive trace walk (DESIGN.md §3.2): same game, published prices.
	world.Collide = world.Collide.Reference()

	seq := cfg.Threads == 0
	if seq {
		cfg.Threads = 1
	}
	smt := 1.0
	cores := cfg.Threads
	if cfg.Threads > cfg.Machine.Cores {
		cores = cfg.Machine.Cores
		smt = cfg.Machine.SMTPenalty
	}
	memBeta := 0.0
	if cfg.Threads > 1 {
		memBeta = cfg.Machine.MemContention
	}
	e := &engine{
		cfg:      cfg,
		world:    world,
		model:    costmodel.Default(),
		seq:      seq,
		machine:  sim.New(sim.Config{Procs: cfg.Threads, Cores: cores, SMTPenalty: smt, MemBeta: memBeta}),
		workers:  make([]simWorker, cfg.Threads),
		bds:      make([]metrics.Breakdown, cfg.Threads),
		replies:  make([]server.ReplyScratch, cfg.Threads),
		frameLog: metrics.NewFrameLog(world.Tree.NumLeaves()),
		endNs:    int64(cfg.DurationS * 1e9),

		stealQ:      make([]server.StealPool[*simClient, desMove], cfg.Threads),
		outstanding: make([]int, cfg.Threads),
		activeMask:  make([]uint64, cfg.Threads),
	}
	e.nodeLocks = make([]sim.Lock, world.Tree.NumNodes())
	e.fc.e = e
	if cfg.Balance.Enabled && cfg.Threads > 1 {
		e.bal = balance.New(cfg.Balance)
	}
	if cfg.Playback != nil {
		e.pbs = &playbackState{
			pb:       cfg.Playback,
			byClient: make([]*simClient, cfg.Playback.Clients),
		}
		// The run lasts exactly as long as the stream needs — workers
		// exit when the cursor drains — with a generous scaled backstop
		// replacing DurationS so a stalled stream still terminates.
		e.endNs = e.pbs.at(len(cfg.Playback.Items)) +
			int64(len(cfg.Playback.Items))*playItemBudgetNs + playDrainSlackNs
	}

	if err := e.buildClients(); err != nil {
		return nil, err
	}
	if err := e.machine.Run(e.workerBody); err != nil {
		return nil, fmt.Errorf("simserver: %w", err)
	}
	if e.pbs != nil {
		if e.pbs.err != nil {
			return nil, fmt.Errorf("simserver: %w", e.pbs.err)
		}
		if e.pbs.cursor != len(cfg.Playback.Items) {
			return nil, fmt.Errorf("simserver: playback stalled at item %d of %d",
				e.pbs.cursor, len(cfg.Playback.Items))
		}
	}

	res := &Result{
		Trace:      e.trace,
		Players:    cfg.Players,
		Threads:    cfg.Threads,
		Strategy:   cfg.Strategy.Name(),
		NumLeaves:  world.Tree.NumLeaves(),
		DurationS:  cfg.DurationS,
		PerThread:  e.bds,
		Avg:        metrics.MergeThreads(e.bds),
		FrameLog:   e.frameLog,
		Resp:       e.resp,
		Locks:      e.locks,
		Frames:     e.fc.frame,
		Requests:   e.requests,
		Migrations: e.migrations,
		World:      world,
	}
	res.Resp.DurationS = cfg.DurationS
	if seq {
		res.Threads = 0
		res.Strategy = "none"
	}
	return res, nil
}

// buildClients spawns the player entities and their request streams,
// statically block-assigned to threads with staggered start times
// ("clients send requests in an asynchronous manner").
func (e *engine) buildClients() error {
	cfg := e.cfg
	e.byThread = make([][]*simClient, cfg.Threads)
	e.ports = make([]*clientPort, cfg.Threads)
	for t := range e.ports {
		e.ports[t] = &clientPort{e: e, thread: t}
	}
	if e.pbs != nil {
		// Playback spawns clients from recorded connect items, in log
		// order, so entity IDs repeat the recorded session's.
		return nil
	}
	periodNs := int64(clientFrameMs * 1e6)
	stagger := rand.New(rand.NewSource(cfg.Seed + 7))
	for i := 0; i < cfg.Players; i++ {
		ent, err := e.world.SpawnPlayer()
		if err != nil {
			return err
		}
		thread := server.BlockAssign(i, cfg.Threads, cfg.Players)
		if cfg.Assign == AssignRoundRobin {
			thread = server.RoundRobinAssign(i, cfg.Threads, cfg.Players)
		}
		c := &simClient{
			idx:    i,
			thread: thread,
			ent:    ent,
			nav:    botclient.NewNavigator(e.world.Map, rand.New(rand.NewSource(cfg.Seed+int64(i)*31+11))),
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(i)*17 + 3)),
		}
		if i < cfg.Cluster && len(e.world.Map.Rooms) > 0 {
			c.pinned = true
			c.home = e.world.Map.Rooms[0].Bounds.Center()
		}
		start := stagger.Int63n(periodNs) + netDelayNs
		end := e.endNs
		if cfg.MaxMoves > 0 {
			if lim := start + cfg.MaxMoves*periodNs; lim < end {
				end = lim
			}
		}
		c.src = &sim.PeriodicSource{
			Start:  start,
			Period: periodNs,
			End:    end,
			Make:   func(seq int64) any { return &simRequest{client: c, seq: seq} },
		}
		e.clients = append(e.clients, c)
		e.byThread[c.thread] = append(e.byThread[c.thread], c)
		if r := cfg.Record; r != nil {
			r.RecordConnect(uint16(i), int32(ent.ID), thread, fmt.Sprintf("sim-%d", i))
		}
	}
	return nil
}

// reassignByRegion implements the dynamic policy: order the players by
// their current areanode leaf (a space-filling walk of the tree) and
// hand each thread one contiguous chunk, so a thread's players cluster
// spatially and its region locks overlap less with other threads'.
func (e *engine) reassignByRegion() {
	order := make([]*simClient, len(e.clients))
	copy(order, e.clients)
	leafOf := func(c *simClient) int32 {
		return e.world.Tree.Node(e.world.Tree.LeafContaining(c.ent.Origin)).LeafOrdinal
	}
	sortClients(order, leafOf)
	for t := range e.byThread {
		e.byThread[t] = e.byThread[t][:0]
	}
	n := len(order)
	threads := len(e.byThread)
	for i, c := range order {
		t := i * threads / n
		c.thread = t
		e.byThread[t] = append(e.byThread[t], c)
	}
}

// sortClients orders clients by (leaf, idx) with a simple insertion sort
// (the slice is small and nearly sorted between epochs).
func sortClients(cs []*simClient, leafOf func(*simClient) int32) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0; j-- {
			lj, lp := leafOf(cs[j]), leafOf(cs[j-1])
			if lj > lp || (lj == lp && cs[j].idx >= cs[j-1].idx) {
				break
			}
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// workerBody is Figure 3 on a simulated context.
func (e *engine) workerBody(p *sim.Proc) {
	bd := &e.bds[p.ID]
	for p.Now() < e.endNs {
		if e.pbs != nil && e.pbs.drained() {
			break
		}
		t0 := p.Now()
		arr, ok := p.Recv(e.ports[p.ID], selectTimeoutNs)
		bd.Charge(metrics.CompIdle, p.Now()-t0)
		e.span(p, "idle", t0)
		if !ok {
			continue
		}
		e.advance(p, e.model.SelectReturn, metrics.CompRecv)

		p.Sync()
		role := e.fc.join(p)
		for role == roleMissed {
			t0 = p.Now()
			e.fc.waitFrameEnd(p)
			bd.Charge(metrics.CompInterWait, p.Now()-t0)
			e.span(p, "wait-end", t0)
			p.Sync()
			role = e.fc.join(p)
		}

		if role == roleMaster {
			if d := e.cfg.BatchDelayNs; d > 0 {
				// Request batching (§5.2 future work): hold the frame
				// open so late threads and requests can join it. The
				// deliberate delay is idle time, not synchronization
				// wait — the master chooses to sit, as in select.
				t0 = p.Now()
				p.AdvanceTo(p.Now() + d)
				bd.Charge(metrics.CompIdle, p.Now()-t0)
			}
			t0 = p.Now()
			e.runWorld(p)
			bd.Charge(metrics.CompWorld, p.Now()-t0)
			e.span(p, "world", t0)
			e.fc.openRequests(p)
		} else {
			t0 = p.Now()
			e.fc.waitRequestsOpen(p)
			bd.Charge(metrics.CompInterWait, p.Now()-t0)
			e.span(p, "wait-open", t0)
		}

		w := &e.workers[p.ID]
		w.frameReqs, w.frameMask, w.frameLockOps, w.frameExecNs = 0, 0, 0, 0
		w.poolIdx = 0
		t0 = p.Now()
		// Receive everything queued, run the steal phase, then re-poll:
		// arrivals that landed while the pools drained join this frame.
		// Without stealing, receive executed every move inline, the steal
		// phase finds nothing pooled, no virtual time passes, and the
		// re-poll comes back empty.
		port := e.ports[p.ID]
		for ok := true; ok; arr, ok = p.Poll(port) {
			for ; ok; arr, ok = p.Poll(port) {
				e.handleArrival(p, arr)
			}
			e.runStealPhase(p)
		}
		e.span(p, "requests", t0)

		t0 = p.Now()
		e.fc.doneRequests(p)
		bd.Charge(metrics.CompIntraWait, p.Now()-t0)
		e.span(p, "barrier", t0)

		t0 = p.Now()
		e.sendReplies(p)
		bd.Charge(metrics.CompReply, p.Now()-t0)
		e.span(p, "reply", t0)
		e.fc.doneReply(p)

		if role == roleMaster {
			t0 = p.Now()
			e.fc.waitAllReplied(p)
			bd.Charge(metrics.CompInterWait, p.Now()-t0)
			e.masterCleanup(p)
			e.fc.endFrame(p)
		}
	}
}

// advance charges virtual time to a breakdown component; the charged
// amount includes any SMT inflation.
func (e *engine) advance(p *sim.Proc, ns int64, c metrics.Component) {
	t0 := p.Now()
	p.Advance(ns)
	e.bds[p.ID].Charge(c, p.Now()-t0)
}

// runWorld executes the master's world-physics phase: the per-frame
// preamble always runs (it is the window during which other threads can
// join the frame), while the physics tick is rate-limited by
// minWorldTickNs.
func (e *engine) runWorld(p *sim.Proc) {
	p.Advance(e.model.FramePreamble(e.world.Ents.Active()))
	if e.pbs != nil {
		// Playback: world physics is driven exclusively by recorded tick
		// items (playControl), never by elapsed virtual time — the same
		// substitution the live replayer makes through Config.Clock.
		return
	}
	elapsed := p.Now() - e.lastWorldNs
	if e.lastWorldNs != 0 && elapsed < minWorldTickNs {
		return
	}
	e.lastWorldNs = p.Now()
	res := e.world.RunWorldFrame(float64(elapsed) / 1e9)
	p.Advance(e.model.WorldCost(res.Work))
	e.frameEvents += len(res.Events)
	if r := e.cfg.Record; r != nil {
		r.RecordTick(elapsed)
	}
}

func (e *engine) globalBufferAppend(p *sim.Proc, n int) {
	if !e.seq {
		e.fc.globalLock.Lock(p)
	}
	e.advance(p, e.model.GlobalBuffer*int64(n), metrics.CompExec)
	e.frameEvents += n
	if !e.seq {
		e.fc.globalLock.Unlock(p)
	}
}

// sendReplies forms replies for this thread's clients that requested
// during the frame. Snapshots run through the same pooled pipeline as
// the live engine, so the simulated breakdowns report real wire bytes
// and buffer growths next to virtual time. Events are modeled only as
// counts (no payloads), so the event lists are nil.
func (e *engine) sendReplies(p *sim.Proc) {
	rs := &e.replies[p.ID]
	bd := &e.bds[p.ID]

	// Build the frame's shared visibility index on the first thread to
	// reach its reply phase; later threads reuse it for free, mirroring
	// the live parallel engine's cooperative build. Under
	// IndexedSnapshots the builder pays the once-per-frame cost from the
	// model; the paper server's arm is charged nothing for it, since it
	// prices each client's naive scan instead (below).
	if e.visFrame != e.fc.frame+1 {
		e.vis.Build(e.world)
		e.visFrame = e.fc.frame + 1
		if e.cfg.IndexedSnapshots {
			build := e.model.SnapshotBuildCost(e.vis.Len())
			p.Advance(build)
			bd.SnapBuildNs += build
		}
	}

	for _, c := range e.byThread[p.ID] {
		if !c.pending {
			continue
		}
		c.pending = false
		data, st := rs.FormSnapshot(e.world, &e.vis, c.ent, &c.baseline,
			uint32(e.fc.frame), 0, uint32(e.world.Time*1000), nil, nil, 0)
		if !e.cfg.IndexedSnapshots {
			st.Work.Considered = naiveConsidered(&e.vis, c.ent)
		}
		events := c.backlog + e.frameEvents
		c.backlog = 0
		p.Advance(e.model.SnapshotCost(st.Work, events))
		bd.SnapMergeNs += int64(st.Work.Considered)*e.model.SnapConsider +
			int64(st.Work.Visible)*e.model.SnapVisible
		bd.ReplyBytes += int64(len(data))
		bd.ReplyDatagrams++
		bd.ReplyAllocs += int64(st.Allocs)
		c.replied = e.fc.frame + 1

		latNs := (p.Now() - c.lastArrival) + 2*netDelayNs
		e.resp.Replies++
		e.resp.Record(float64(latNs) / 1e9)
	}
}

// naiveConsidered is how many entities the paper server's per-client
// scan (World.BuildSnapshot) considers: every snapshot-eligible entity
// but the viewer itself.
func naiveConsidered(vi *game.VisIndex, viewer *entity.Entity) int {
	if viewer.SnapEligible {
		return vi.Len() - 1
	}
	return vi.Len()
}

// masterCleanup distributes leftover events, logs the frame, and clears
// the global state buffer.
func (e *engine) masterCleanup(p *sim.Proc) {
	if e.frameEvents > 0 {
		for _, c := range e.clients {
			if c.replied != e.fc.frame+1 {
				c.backlog += e.frameEvents
			}
		}
		e.advance(p, e.model.GlobalBuffer, metrics.CompWorld)
	}
	e.frameEvents = 0

	// Dynamic assignment epoch (exclusive: all participants are past
	// their reply phases and non-participants never touch byThread).
	if e.cfg.Assign == AssignRegion && p.Now()-e.lastReassign >= reassignEveryNs {
		e.lastReassign = p.Now()
		e.reassignByRegion()
	}

	rec := metrics.FrameRecord{
		Frame:             e.fc.frame,
		Participants:      len(e.fc.participants),
		RequestsByThread:  make([]int, len(e.workers)),
		LeafLocksByThread: make([]uint64, len(e.workers)),
		ExecNsByThread:    make([]int64, len(e.workers)),
	}
	for _, wid := range e.fc.participants {
		rec.RequestsByThread[wid] = e.workers[wid].frameReqs
		rec.LeafLocksByThread[wid] = e.workers[wid].frameMask
		rec.LeafLockOps += e.workers[wid].frameLockOps
		rec.ExecNsByThread[wid] = e.workers[wid].frameExecNs
	}
	if e.bal != nil {
		rec.Migrations = e.rebalance()
	}
	e.frameLog.Append(rec)
	if r := e.cfg.Record; r != nil {
		r.RecordFrameEnd(e.fc.frame)
	}
	if wr := e.cfg.Checkpoint; wr != nil && wr.Due(e.fc.frame) {
		e.captureCheckpoint(p, wr)
	}
}

// captureCheckpoint mirrors the live engines' barrier capture on the
// simulated machine: the same Begin/AddClient/Commit cycle against the
// frame-stable world, after the frame's record taps so the redo-log cut
// names exactly the state the snapshot contains, with the serialization
// charged to the master's frame time by the cost model. Clients are
// visited in idx order, satisfying the format's ID-ascending rule. Where
// a live engine skips a capture the real flusher is still writing, the
// DES waits for it (BeginWait): the wait costs no virtual time, so the
// captures taken depend on the cadence alone.
func (e *engine) captureCheckpoint(p *sim.Proc, wr *checkpoint.Writer) {
	bd := &e.bds[p.ID]
	items := 0
	if r := e.cfg.Record; r != nil {
		items = r.Items()
	}
	meta := checkpoint.Meta{
		Frame:        e.fc.frame,
		RecItems:     uint64(items),
		JoinIdx:      len(e.clients),
		NextClientID: uint16(len(e.clients)),
	}
	wr.BeginWait(e.world, meta)
	for _, c := range e.clients {
		wr.AddClient(checkpoint.ClientRec{
			ID:           uint16(c.idx),
			EntID:        int32(c.ent.ID),
			Thread:       uint8(c.thread),
			RepliedFrame: uint32(c.replied),
			LoadNs:       c.loadNs,
			BaselineTag:  c.baseline.Tag(),
			Baseline:     c.baseline.States(),
		})
	}
	st := wr.Commit()
	t0 := p.Now()
	p.Advance(e.model.CheckpointCost(st.Entities, st.Bytes))
	bd.Checkpoints++
	bd.CheckpointNs += p.Now() - t0
	bd.CheckpointBytes += int64(st.Bytes)
	if st.Full {
		bd.CheckpointFullBytes += int64(st.Bytes)
	} else {
		bd.CheckpointDeltaBytes += int64(st.Bytes)
	}
}

// rebalance mirrors the live engine's barrier rebalance: it runs in
// masterCleanup, where every participant is past its reply phase and no
// other context executes, so reassigning threads and rebuilding the
// per-thread membership lists is plain data manipulation. Pending
// requests follow the client through clientPort's dynamic membership
// scan, and the reply baseline travels with the simClient untouched.
func (e *engine) rebalance() int {
	loads, threads := e.balLoads[:0], e.balThreads[:0]
	for _, c := range e.clients { // idx order: deterministic plans
		loads = append(loads, c.loadNs)
		threads = append(threads, c.thread)
	}
	e.balLoads, e.balThreads = loads, threads

	migs := e.bal.Plan(loads, threads, len(e.workers))
	for _, mg := range migs {
		e.clients[mg.Client].thread = mg.To
		if r := e.cfg.Record; r != nil {
			r.RecordMigrate(uint16(e.clients[mg.Client].idx), mg.To)
		}
	}
	if len(migs) > 0 {
		for t := range e.byThread {
			e.byThread[t] = e.byThread[t][:0]
		}
		for _, c := range e.clients {
			e.byThread[c.thread] = append(e.byThread[c.thread], c)
		}
	}
	for _, c := range e.clients {
		c.loadNs >>= 1
	}
	e.migrations += int64(len(migs))
	return len(migs)
}

// decide produces the client's next move command: the conformance
// script when one is configured, otherwise the bot policy.
func (c *simClient) decide(e *engine, seq int64) protocol.MoveCmd {
	if e.pbs != nil {
		// seq is the playback cursor index of this move item.
		return e.pbs.pb.Items[seq].Cmd
	}
	if e.cfg.Script != nil {
		return e.cfg.Script(c.idx, seq)
	}
	var cmd protocol.MoveCmd
	cmd.Msec = clientFrameMs
	cmd.Forward = 320

	pos := c.ent.Origin
	target := c.nav.Steer(pos)
	wishYaw := geom.VecToAngles(target.Sub(pos)).Y

	// Nearest living enemy within engagement range.
	var nearest *entity.Entity
	bestD := 700.0 * 700.0
	for _, other := range e.clients {
		oe := other.ent
		if oe == c.ent || oe.Health <= 0 {
			continue
		}
		if d := pos.DistSq(oe.Origin); d < bestD {
			bestD = d
			nearest = oe
		}
	}
	if nearest != nil {
		wishYaw = geom.VecToAngles(nearest.Origin.Sub(pos)).Y
		if c.rng.Float64() < 0.15 {
			cmd.Buttons |= protocol.BtnFire
		}
		if c.rng.Float64() < 0.3 {
			cmd.Impulse = uint8(1 + c.rng.Intn(2))
		}
	}
	// Clustered workload: pinned clients head back to their home room
	// whenever they wander out of it, overriding navigation and combat
	// steering so the crowd never disperses.
	if c.pinned {
		if d := c.home.Sub(pos).Flat(); d.Len() > 96 {
			wishYaw = geom.VecToAngles(d).Y
		}
	}
	cmd.Yaw = protocol.AngleToWire(wishYaw)
	if c.rng.Float64() < 0.02 {
		cmd.Buttons |= protocol.BtnJump
	}
	return cmd
}

// simProvider adapts the virtual locks to the locking.Provider interface,
// charging queueing delay and acquisition overhead to the lock component
// with leaf/parent attribution.
type simProvider struct {
	e *engine
	p *sim.Proc
}

func (sp *simProvider) LockNode(n int32) {
	leaf := sp.e.world.Tree.Node(n).IsLeaf()
	wait := sp.e.nodeLocks[n].Lock(sp.p)
	sp.e.bds[sp.p.ID].ChargeLock(wait, leaf)
	t0 := sp.p.Now()
	sp.p.Advance(sp.e.model.LockAcquire)
	sp.e.bds[sp.p.ID].ChargeLock(sp.p.Now()-t0, leaf)
}

func (sp *simProvider) UnlockNode(n int32) {
	sp.e.nodeLocks[n].Unlock(sp.p)
}

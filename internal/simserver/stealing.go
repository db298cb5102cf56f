package simserver

import (
	"math/bits"

	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/sim"
)

// Request execution on the simulated machine: one receive path and one
// move executor for every scheduler arm. The steal scheduler itself — the
// pool, its scan rules, the park placement and the park cap — is the live
// engine's (server.StealPool, DESIGN.md §10), instantiated here with a
// plain claimed bool: the discrete-event machine runs one context at a
// time, so there is no claim CAS, no pool mutex and no memory-model
// argument. What this file adds is what the DES models: virtual-time
// charges, virtual locks, and idle hops.
//
// Per frame, each thread turns its clients' arrivals into desEntry records
// (the move command is decided at receive time, so a parked retry replays
// the same command). Under Config.Stealing the entries are pooled, and the
// thread drains its own pool oldest-first, stealing from other threads'
// pools when its own runs dry: fresh entries execute with
// LockContext.TryFirst, a contended first acquisition parks the entry back
// on its owner's pool instead of queueing on the lock, and past
// server.MaxStealParks parks the retry blocks. A thread leaves its request
// phase only when no pooled entry remains uncommitted frame-wide, so reply
// phases always see a finished frame. Without stealing — the paper's
// static schedule, and the sequential server — the owner runs each entry
// inline through the same executor with the park budget already spent.
//
// Determinism: procs interleave in virtual-time order, scans are
// oldest-first with victims visited in a fixed rotation, and idle waits
// advance the clock by a fixed quantum, so the same configuration yields
// the same schedule, the same steal counts, and the same world. Per-client
// order is FIFO by construction (scans take a client's oldest entry first),
// so script-driven runs stay move-for-move identical to the static
// scheduler's.

// stealSpinNs is the virtual-time quantum an idle thread waits before
// re-checking for claimable or stealable work while entries it owns are
// still in flight on other threads. Charged as intra-frame wait: the
// thread is blocked on the frame's remaining request work.
const stealSpinNs = 1_000

// desMove is one received move command: what the client decided, its
// source sequence number, and when it arrived.
type desMove struct {
	cmd       protocol.MoveCmd
	seq       int64
	arrivedAt int64
}

type desEntry = server.StealEntry[*simClient, desMove]

// claimClient is the pool scans' claim attempt: a client with an entry
// mid-execution on another thread is refused.
func claimClient(c *simClient) bool {
	if c.claimed {
		return false
	}
	c.claimed = true
	return true
}

// stealing reports whether the pooled scheduler is active for this run.
func (e *engine) stealing() bool {
	return e.cfg.Stealing && e.cfg.Threads > 1
}

// receive is the one receive path: it pays the receive cost, decides the
// command, and hands the entry to the scheduler — pooled for the steal
// phase, or executed inline by its owner. The request count is settled
// here, once — a parked retry is the same request, not a new one.
func (e *engine) receive(p *sim.Proc, req *simRequest, arrivedAt int64) {
	e.requests++
	e.advance(p, e.model.RecvPacket, metrics.CompRecv)

	c := req.client
	w := &e.workers[p.ID]
	en := desEntry{
		Client: c,
		Move:   desMove{cmd: c.decide(e, req.seq), seq: req.seq, arrivedAt: arrivedAt},
		Owner:  p.ID,
		Idx:    w.poolIdx,
		Hint:   c.lastMask,
	}
	w.poolIdx++
	if e.stealing() {
		e.stealQ[p.ID].Push(en)
		e.outstanding[p.ID]++
		return
	}
	// Static assignment: a blocking first acquire, so it never parks.
	en.Parks = server.MaxStealParks
	e.execPooled(p, &en)
}

// runStealPhase drains the thread's pooled work: own entries first, then
// steals. It returns only when every pooled entry frame-wide has
// committed — not just its own: while any thread still has uncommitted
// work this thread keeps scanning for steals instead of parking at the
// request barrier, converting the static design's barrier idle into
// execution. Waiting (for in-flight entries, or for victims that have
// not pooled their arrivals yet) advances the clock in stealSpinNs hops,
// charged as intra-frame wait. With nothing pooled — every non-stealing
// arm — it returns at once.
func (e *engine) runStealPhase(p *sim.Proc) {
	for {
		if en, ok := e.stealQ[p.ID].Take(false, e.avoidMask(p), claimClient); ok {
			e.runPooled(p, en)
			continue
		}
		if en, ok := e.stealFrom(p); ok {
			e.runPooled(p, en)
			continue
		}
		total := 0
		for _, n := range e.outstanding {
			total += n
		}
		if total == 0 {
			return
		}
		t0 := p.Now()
		p.AdvanceTo(p.Now() + stealSpinNs)
		e.bds[p.ID].Charge(metrics.CompIntraWait, p.Now()-t0)
	}
}

// avoidMask unions the leaf masks of the requests other threads are
// executing right now — the conflict-awareness input of every pool scan.
func (e *engine) avoidMask(p *sim.Proc) uint64 {
	var avoid uint64
	for i, m := range e.activeMask {
		if i != p.ID {
			avoid |= m
		}
	}
	return avoid
}

// stealFrom scans the other threads' pools in a fixed rotation starting
// after this thread, avoiding entries whose leaf hint intersects a region
// some other thread is executing in right now.
func (e *engine) stealFrom(p *sim.Proc) (desEntry, bool) {
	avoid := e.avoidMask(p)
	n := len(e.stealQ)
	for i := 1; i < n; i++ {
		if en, ok := e.stealQ[(p.ID+i)%n].Take(true, avoid, claimClient); ok {
			return en, true
		}
	}
	return desEntry{}, false
}

// runPooled executes one claimed pool entry and settles it: parked back on
// its owner's pool on contention, else counted off the owner's outstanding
// work. The claim is released last, once the entry is back in a pool or
// fully committed.
func (e *engine) runPooled(p *sim.Proc, en desEntry) {
	if e.execPooled(p, &en) {
		e.bds[p.ID].StealConflicts++
		en.Parks++
		e.stealQ[en.Owner].Requeue(en)
	} else {
		e.outstanding[en.Owner]--
	}
	en.Client.claimed = false
}

// execPooled is the DES's one move executor. While the entry has park
// budget left its first acquisition is non-blocking, and a refusal
// reports parked=true with no side effects applied. The sequential server
// is the same call with no region locker and no region bookkeeping cost.
func (e *engine) execPooled(p *sim.Proc, en *desEntry) (parked bool) {
	c := en.Client
	bd := &e.bds[p.ID]
	execBefore := bd.Ns[metrics.CompExec]

	var stats locking.AcquireStats
	var mask uint64
	held := int64(0)
	lc := game.LockContext{
		Strategy: e.cfg.Strategy,
		Stats:    &stats,
		LeafMask: &mask,
		TryFirst: en.Parks < server.MaxStealParks,
		OnWork: func(wk game.Work) {
			ns := e.model.WorkCost(wk)
			held += ns
			e.advance(p, ns, metrics.CompExec)
		},
	}
	if !e.seq {
		lc.Locker = &locking.RegionLocker{
			Tree:     e.world.Tree,
			Provider: &simProvider{e: e, p: p},
		}
	}
	e.activeMask[p.ID] = en.Hint
	res := e.world.ExecuteMove(c.ent, &en.Move.cmd, &lc)
	e.activeMask[p.ID] = 0
	if res.Parked {
		// The region determination ran before the refused probe; the
		// probe itself was charged by TryLockNode. The retry recomputes
		// the region, so this charge does not double-count.
		e.advance(p, e.model.RegionOverhead(res.Work), metrics.CompExec)
		return true
	}
	total := e.model.MoveCost(res.Work)
	if lc.Locker != nil {
		total += e.model.RegionOverhead(res.Work)
	}
	if rest := total - held; rest > 0 {
		e.advance(p, rest, metrics.CompExec)
	}

	// Per-client execute cost (this move's CompExec charge, which excludes
	// lock wait) feeds the balancer; measured before the global-buffer
	// append so broadcast pressure is not attributed to the mover.
	execDelta := bd.Ns[metrics.CompExec] - execBefore
	c.loadNs += execDelta
	bd.ExecCmds++
	if en.Owner != p.ID {
		bd.Steals++
		bd.StealsNs += execDelta
	}

	if n := len(res.Events); n > 0 {
		// Global state buffer: a single lock serializes all accesses.
		e.globalBufferAppend(p, n)
	}

	c.pending = true
	c.lastArrival = en.Move.arrivedAt
	if mask != 0 {
		c.lastMask = mask
	}
	// Commit point: the tap and the playback cursor advance belong here,
	// never on the park path above — a parked entry re-executes.
	if r := e.cfg.Record; r != nil {
		r.RecordMove(uint16(c.idx), e.moveSeq(en.Move.seq), &en.Move.cmd)
	}
	if e.pbs != nil {
		e.pbs.commit()
	}

	w := &e.workers[p.ID]
	w.frameExecNs += execDelta
	w.frameReqs++
	w.frameMask |= mask
	w.frameLockOps += stats.LeafLockOps

	e.locks.Moves++
	e.locks.LeafLockOps += int64(stats.LeafLockOps)
	e.locks.ParentLockOps += int64(stats.ParentLockOps)
	e.locks.DistinctLeaves += int64(bits.OnesCount64(mask))
	return false
}

// TryLockNode implements locking.TryProvider on the virtual locks: the
// probe syncs to virtual-time order and either takes the node or refuses
// without queueing. Both outcomes pay the acquisition overhead — a
// refused probe is real work the lock-wall study must see.
func (sp *simProvider) TryLockNode(n int32) bool {
	leaf := sp.e.world.Tree.Node(n).IsLeaf()
	ok := sp.e.nodeLocks[n].TryLock(sp.p)
	t0 := sp.p.Now()
	sp.p.Advance(sp.e.model.LockAcquire)
	sp.e.bds[sp.p.ID].ChargeLock(sp.p.Now()-t0, leaf)
	return ok
}

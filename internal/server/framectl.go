package server

import (
	"sync"
	"sync/atomic"
)

// Frame phases, in the mandatory order of §3: world processing, request
// processing, reply processing (invariant ii), each separated by global
// synchronization (invariant i).
const (
	stIdle int = iota
	stWorld
	stRequest
	stReply
)

// maxThreads is the widest worker pool the frame controller supports:
// reqDoneBy tracks request-barrier passage as a uint64 bitmask indexed by
// worker id. Config validation rejects larger pools up front, because a
// worker beyond the mask would be invisible to the abandonment protocol's
// stalled-in-request verification.
const maxThreads = 64

// Worker roles for one frame.
type frameRole int

const (
	roleMissed frameRole = iota // arrived too late: wait for the frame end signal
	roleMaster                  // first thread to exit select: runs the world update
	roleWorker                  // joined during the world update: participates
)

// frameCtl implements the global synchronization of Figure 3 with a
// monitor. All waits are condition-variable sleeps; callers time them and
// charge the paper's inter-/intra-frame wait components.
//
// Beyond the paper's protocol, the controller supports *abandonment*: the
// frame watchdog can declare a wedged participant a zombie mid-frame
// (abandon), which removes it from the barrier arithmetic so the
// remaining threads complete the frame without it. Every barrier entry
// point returns whether the caller is still a live participant; a zombie
// must stop touching frame state, run its recovery path, acquit itself,
// and only then rejoin. The controller never blocks on a zombie:
//
//   - request barrier: opens when all *active* participants are done;
//   - reply barrier: if the master was abandoned, the last active
//     participant to finish its replies is promoted to finish the frame;
//   - if no active participant remains to close the frame (master
//     abandoned after everyone replied, or every participant abandoned),
//     the controller closes it itself inside abandon.
type frameCtl struct {
	mu   sync.Mutex
	cond *sync.Cond

	state        int
	frame        uint64
	participants []int
	reqDone      int
	repDone      int
	// reqDoneBy records which workers passed the request barrier this
	// frame (bit i = worker i). The watchdog's guarded abandonment uses it
	// to verify a worker it observed as wedged has not in fact finished
	// the phase between observation and abandonment.
	reqDoneBy uint64
	// drainDone counts participants that have completed their receive
	// drain this frame (work-stealing only). A participant that has
	// received requests but not yet pooled them is invisible to the
	// outstanding counters, so a steal scan cannot tell "no work yet"
	// from "no work ever"; once drainDone covers every active
	// participant, the frame's pooled work can only shrink and an empty
	// scan means the steal phase is truly over.
	drainDone int

	// active is the number of participants not abandoned this frame.
	active int
	// masterID is this frame's master; masterGone is set when it is
	// abandoned, arming promotion.
	masterID   int
	masterGone bool
	// finishing is set once frame completion is claimed — by promotion or
	// by the controller's own fallback — so it cannot be claimed twice.
	finishing bool
	// zombies holds abandoned workers until they acquit. Sticky across
	// frames: a worker that never recovers stays a zombie forever and can
	// never rejoin (join is only reached after acquit in the worker loop).
	zombies map[int]bool
	// nzombies mirrors len(zombies) for lock-free reads: while it is
	// non-zero the engine runs in degraded mode, where world readers take
	// the world guard exclusively because an abandoned worker may wake and
	// resume a request mid-flight at any moment.
	nzombies atomic.Int32
}

func newFrameCtl() *frameCtl {
	fc := &frameCtl{zombies: make(map[int]bool)}
	fc.cond = sync.NewCond(&fc.mu)
	return fc
}

// join attempts to enter the current frame. The first joiner while idle
// becomes the master; joiners during the master's world update
// participate; anyone later misses the frame ("threads that exit select
// after this point will have to wait until the next server frame").
// Callers must not be zombies: the worker loop acquits before rejoining.
func (fc *frameCtl) join(worker int) frameRole {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	switch fc.state {
	case stIdle:
		fc.state = stWorld
		fc.participants = fc.participants[:0]
		fc.participants = append(fc.participants, worker)
		fc.reqDone, fc.repDone = 0, 0
		fc.reqDoneBy = 0
		fc.drainDone = 0
		fc.active = 1
		fc.masterID = worker
		fc.masterGone = false
		fc.finishing = false
		return roleMaster
	case stWorld:
		fc.participants = append(fc.participants, worker)
		fc.active++
		return roleWorker
	default:
		return roleMissed
	}
}

// waitFrameEnd blocks until the current frame completes — the "frame
// end" signal. It returns immediately if no frame is in progress.
func (fc *frameCtl) waitFrameEnd() {
	fc.mu.Lock()
	f := fc.frame
	for fc.state != stIdle && fc.frame == f {
		fc.cond.Wait()
	}
	fc.mu.Unlock()
}

// openRequests is called by the master after the world update; it admits
// the frozen participant set to the request-processing phase.
func (fc *frameCtl) openRequests() {
	fc.mu.Lock()
	fc.state = stRequest
	fc.mu.Unlock()
	fc.cond.Broadcast()
}

// waitRequestsOpen blocks a participant until the master opens the
// request phase (inter-frame wait: "for the world update phase to
// complete"). Returns false if the caller was abandoned or the frame
// collapsed while waiting — the caller must bail out of the frame.
func (fc *frameCtl) waitRequestsOpen(worker int) bool {
	fc.mu.Lock()
	f := fc.frame
	for fc.state == stWorld && fc.frame == f && !fc.zombies[worker] {
		fc.cond.Wait()
	}
	ok := fc.frame == f && !fc.zombies[worker]
	fc.mu.Unlock()
	return ok
}

// doneRequests marks one participant's request queue drained and blocks
// until every active participant is done (the intra-frame wait), after
// which the reply phase is open. Returns false if the caller was
// abandoned — it must not proceed to the reply phase.
func (fc *frameCtl) doneRequests(worker int) bool {
	fc.mu.Lock()
	if fc.zombies[worker] {
		fc.mu.Unlock()
		return false
	}
	fc.reqDone++
	if worker >= 0 && worker < maxThreads {
		fc.reqDoneBy |= 1 << uint(worker)
	}
	if fc.reqDone >= fc.active && fc.state == stRequest {
		fc.state = stReply
		fc.mu.Unlock()
		fc.cond.Broadcast()
		return true
	}
	f := fc.frame
	for fc.state == stRequest && fc.frame == f && !fc.zombies[worker] {
		fc.cond.Wait()
	}
	ok := fc.frame == f && !fc.zombies[worker]
	fc.mu.Unlock()
	return ok
}

// doneReply marks one participant's replies sent. promoted reports that
// the master was abandoned this frame and the caller — the last active
// participant to finish — must take over frame completion (cleanup and
// endFrame). ok is false if the caller was abandoned.
func (fc *frameCtl) doneReply(worker int) (ok, promoted bool) {
	fc.mu.Lock()
	if fc.zombies[worker] {
		fc.mu.Unlock()
		return false, false
	}
	fc.repDone++
	if fc.state == stReply && fc.masterGone && !fc.finishing && fc.repDone >= fc.active {
		fc.finishing = true
		promoted = true
	}
	fc.mu.Unlock()
	fc.cond.Broadcast()
	return true, promoted
}

// waitAllReplied blocks the master (or a promoted worker) until every
// active participant has finished the reply phase.
func (fc *frameCtl) waitAllReplied() {
	fc.mu.Lock()
	for fc.repDone < fc.active {
		fc.cond.Wait()
	}
	fc.mu.Unlock()
}

// endFrame closes the frame and signals its end, waking threads that
// missed it. Master (or promoted worker) only.
func (fc *frameCtl) endFrame() {
	fc.mu.Lock()
	fc.finishFrameLocked()
	fc.mu.Unlock()
	fc.cond.Broadcast()
}

func (fc *frameCtl) finishFrameLocked() {
	fc.state = stIdle
	fc.frame++
}

// abandon removes a participant from the current frame's barrier
// arithmetic and marks it a zombie until it acquits. The watchdog calls
// this for a wedged worker. If the missing worker was the only thing
// holding up a barrier — or was the master and nobody is left to be
// promoted — the controller advances or closes the frame itself. Returns
// false if the worker is not an abandonable participant right now.
func (fc *frameCtl) abandon(worker int) bool {
	fc.mu.Lock()
	if fc.zombies[worker] || fc.state == stIdle || !fc.isParticipantLocked(worker) {
		fc.mu.Unlock()
		return false
	}
	fc.abandonLocked(worker)
	fc.mu.Unlock()
	fc.cond.Broadcast()
	return true
}

// abandonRequestStalled is the watchdog's entry point: it abandons the
// worker only if it is verifiably still stalled in the request phase of
// the current frame — a participant that has not passed the request
// barrier. This closes the detect-vs-abandon race: the watchdog's phase
// observation is unsynchronized, and between it and this call the worker
// may have finished the phase; abandoning a then-live participant would
// collapse the barrier under it and let its reply reads race the next
// frame's request execution. Confining quarantine to the request phase
// also guarantees zombies are only ever created while the world guard's
// degraded mode can see them: every reply phase begins after the
// stRequest→stReply transition, ordered by this mutex.
func (fc *frameCtl) abandonRequestStalled(worker int) bool {
	fc.mu.Lock()
	if fc.state != stRequest || fc.zombies[worker] || !fc.isParticipantLocked(worker) ||
		worker < 0 || worker >= maxThreads || fc.reqDoneBy&(1<<uint(worker)) != 0 {
		fc.mu.Unlock()
		return false
	}
	fc.abandonLocked(worker)
	fc.mu.Unlock()
	fc.cond.Broadcast()
	return true
}

// doneDraining marks one participant's receive drain complete: the
// worker will pool no further entries this frame. Stealing workers call
// it between the receive drain and the steal phase.
func (fc *frameCtl) doneDraining(worker int) {
	fc.mu.Lock()
	if !fc.zombies[worker] {
		fc.drainDone++
	}
	fc.mu.Unlock()
}

// allDrained reports whether every active participant has finished its
// receive drain, i.e. no new request work can be pooled this frame. An
// abandoned participant that never finished draining stops counting
// against the bound (abandon decrements active), so its zombie wedge
// cannot pin thieves in their scan loops forever.
func (fc *frameCtl) allDrained() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.drainDone >= fc.active
}

func (fc *frameCtl) isParticipantLocked(worker int) bool {
	for _, p := range fc.participants {
		if p == worker {
			return true
		}
	}
	return false
}

func (fc *frameCtl) abandonLocked(worker int) {
	fc.zombies[worker] = true
	fc.nzombies.Store(int32(len(fc.zombies)))
	fc.active--
	if worker == fc.masterID {
		fc.masterGone = true
	}
	switch fc.state {
	case stWorld:
		// Master wedged mid-world-update: requests never open. Collapse
		// the frame so waiting participants escape. (The watchdog does not
		// monitor the world phase, so this is defensive.)
		if fc.masterGone && !fc.finishing {
			fc.finishing = true
			fc.finishFrameLocked()
		}
	case stRequest:
		if fc.reqDone >= fc.active {
			if fc.active == 0 {
				// Every participant is a zombie; nobody left to reply.
				fc.finishing = true
				fc.finishFrameLocked()
			} else {
				fc.state = stReply
			}
		}
	case stReply:
		// If all remaining actives already called doneReply, no future
		// doneReply will claim promotion — close the frame here. (With the
		// master alive it is in waitAllReplied and the broadcast after
		// unlock wakes it instead.)
		if fc.masterGone && !fc.finishing && fc.repDone >= fc.active {
			fc.finishing = true
			fc.finishFrameLocked()
		}
	}
}

// isZombie reports whether the worker is currently abandoned.
func (fc *frameCtl) isZombie(worker int) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.zombies[worker]
}

// acquit clears a worker's zombie mark after it has run its recovery
// path; the worker may then rejoin frames.
func (fc *frameCtl) acquit(worker int) {
	fc.mu.Lock()
	delete(fc.zombies, worker)
	fc.nzombies.Store(int32(len(fc.zombies)))
	fc.mu.Unlock()
}

// hasZombies reports whether any abandoned worker has yet to acquit —
// the engine's degraded-mode flag. Lock-free: callers check it once per
// phase, and transitions are ordered by the barrier (zombies are created
// only inside stRequest, so a phase that began after the request barrier
// cannot miss one).
func (fc *frameCtl) hasZombies() bool { return fc.nzombies.Load() > 0 }

// frameNumber returns the completed-frame counter.
func (fc *frameCtl) frameNumber() uint64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.frame
}

// setFrame seeds the frame counter before the pool starts — restore
// resumes numbering where the recovered session left off so checkpoint
// file names and replay logs stay monotonic across the restart. Must not
// be called once workers are running.
func (fc *frameCtl) setFrame(n uint64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.frame = n
}

package server

import "sync"

// Frame phases, in the mandatory order of §3: world processing, request
// processing, reply processing (invariant ii), each separated by global
// synchronization (invariant i).
const (
	stIdle int = iota
	stWorld
	stRequest
	stReply
)

// Worker roles for one frame.
type frameRole int

const (
	roleMissed frameRole = iota // arrived too late: wait for the frame end signal
	roleMaster                  // first thread to exit select: runs the world update
	roleWorker                  // joined during the world update: participates
)

// frameCtl implements the global synchronization of Figure 3 with a
// monitor. All waits are condition-variable sleeps; callers time them and
// charge the paper's inter-/intra-frame wait components. A participant
// that never reaches a barrier stalls the frame; the watchdog turns that
// stall into a process exit (DESIGN.md §7), so the controller itself
// never has to route around a missing thread.
type frameCtl struct {
	mu   sync.Mutex
	cond *sync.Cond

	state        int
	frame        uint64
	participants int
	reqDone      int
	repDone      int
	// drainDone counts participants that have completed their receive
	// drain this frame (work-stealing only). A participant that has
	// received requests but not yet pooled them is invisible to the
	// outstanding counters, so a steal scan cannot tell "no work yet"
	// from "no work ever"; once drainDone covers every participant, the
	// frame's pooled work can only shrink and an empty scan means the
	// steal phase is truly over.
	drainDone int
}

func newFrameCtl() *frameCtl {
	fc := &frameCtl{}
	fc.cond = sync.NewCond(&fc.mu)
	return fc
}

// join attempts to enter the current frame. The first joiner while idle
// becomes the master; joiners during the master's world update
// participate; anyone later misses the frame ("threads that exit select
// after this point will have to wait until the next server frame").
func (fc *frameCtl) join() frameRole {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	switch fc.state {
	case stIdle:
		fc.state = stWorld
		fc.participants = 1
		fc.reqDone, fc.repDone = 0, 0
		fc.drainDone = 0
		return roleMaster
	case stWorld:
		fc.participants++
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
// complete").
func (fc *frameCtl) waitRequestsOpen() {
	fc.mu.Lock()
	for fc.state == stWorld {
		fc.cond.Wait()
	}
	fc.mu.Unlock()
}

// doneRequests marks one participant's request queue drained and blocks
// until every participant is done (the intra-frame wait), after which
// the reply phase is open.
func (fc *frameCtl) doneRequests() {
	fc.mu.Lock()
	fc.reqDone++
	if fc.reqDone == fc.participants {
		fc.state = stReply
		fc.mu.Unlock()
		fc.cond.Broadcast()
		return
	}
	for fc.state == stRequest {
		fc.cond.Wait()
	}
	fc.mu.Unlock()
}

// doneReply marks one participant's replies sent.
func (fc *frameCtl) doneReply() {
	fc.mu.Lock()
	fc.repDone++
	fc.mu.Unlock()
	fc.cond.Broadcast()
}

// waitAllReplied blocks the master until every participant has finished
// the reply phase.
func (fc *frameCtl) waitAllReplied() {
	fc.mu.Lock()
	for fc.repDone < fc.participants {
		fc.cond.Wait()
	}
	fc.mu.Unlock()
}

// endFrame closes the frame and signals its end, waking threads that
// missed it. Master only.
func (fc *frameCtl) endFrame() {
	fc.mu.Lock()
	fc.state = stIdle
	fc.frame++
	fc.mu.Unlock()
	fc.cond.Broadcast()
}

// doneDraining marks one participant's receive drain complete: the
// worker will pool no further entries this frame. Stealing workers call
// it between the receive drain and the steal phase.
func (fc *frameCtl) doneDraining() {
	fc.mu.Lock()
	fc.drainDone++
	fc.mu.Unlock()
}

// allDrained reports whether every participant has finished its receive
// drain, i.e. no new request work can be pooled this frame.
func (fc *frameCtl) allDrained() bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.drainDone == fc.participants
}

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

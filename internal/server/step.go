package server

import "time"

// Stepped mode (DESIGN.md §13): instead of owning a goroutine that spins
// in select (Start/workerLoop), a one-worker engine can be driven one frame
// at a time by an external scheduler — the match manager multiplexes
// thousands of engines over a GOMAXPROCS-sized worker pool this way.
// The caller guarantees mutual exclusion: at most one StepFrame runs at
// a time, and the scheduler's own synchronization (its heap mutex)
// provides the happens-before edge when consecutive frames of one match
// run on different workers.

// StartStepped prepares the engine for externally driven frames. Call it
// once instead of Start; then call StepFrame on the scheduler's cadence.
// Only a one-worker engine (Threads 0 or 1) can be stepped: one caller runs
// the whole frame, so there is nobody to meet at its barriers.
func (s *Parallel) StartStepped() {
	if len(s.workers) != 1 {
		panic("server: StartStepped on an engine with more than one worker")
	}
	s.started = time.Now()
	s.lastTick = s.cfg.timeNow()
}

// StepFrame runs exactly one frame (runFrame) without ever blocking on
// the connection. It returns whether the match is active: a datagram
// arrived or a client is connected. An idle match (false) only pays the
// physics tick, skips the visibility build and reply sweep entirely, and
// parks its shared frame buffers back in the pool, so thousands of idle
// matches hold no warm buffers and coalesce onto a slow cadence.
func (s *Parallel) StepFrame() bool {
	w := s.workers[0]
	if w.scratch == nil {
		s.borrow()
	}
	active := s.runFrame(w, 0, nil) || s.clients.count() > 0
	if !active && s.cfg.Shared != nil {
		s.cfg.Shared.put(w.bufs)
		w.bufs, w.scratch, s.vis.index = nil, nil, nil
	}
	return active
}

// borrow takes the engine's frame buffers from Config.Shared: a set for
// every worker, the first one's also holding the engine's visibility
// index.
func (s *Parallel) borrow() {
	for _, w := range s.workers {
		w.bufs = s.cfg.Shared.get()
		w.scratch = &w.bufs.scratch
	}
	s.vis.index = &s.workers[0].bufs.vis
}

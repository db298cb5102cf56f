package server

import "time"

// Stepped mode (DESIGN.md §13): instead of owning a goroutine that spins
// in select (Start/loop), a Sequential engine can be driven one frame at
// a time by an external scheduler — the match manager multiplexes
// thousands of engines over a GOMAXPROCS-sized worker pool this way.
// The caller guarantees mutual exclusion: at most one StepFrame runs at
// a time, and the scheduler's own synchronization (its heap mutex)
// provides the happens-before edge when consecutive frames of one match
// run on different workers.

// StartStepped prepares the engine for externally driven frames. Call it
// once instead of Start; then call StepFrame on the scheduler's cadence.
func (s *Sequential) StartStepped() {
	s.started = time.Now()
	s.lastTick = s.cfg.timeNow()
}

// StepFrame runs exactly one frame (runFrame) without ever blocking on
// the connection. It returns whether the match is active: a datagram
// arrived or a client is connected. An idle match (false) only pays the
// physics tick, skips the visibility build and reply sweep entirely, and
// parks its shared frame scratch back in the pool, so thousands of idle
// matches hold no warm buffers and coalesce onto a slow cadence.
func (s *Sequential) StepFrame() bool {
	if s.lane.scratch == nil {
		s.lane.scratch = s.cfg.Shared.get()
	}
	active := s.runFrame(0, nil) || s.clients.count() > 0
	if !active && s.cfg.Shared != nil {
		s.cfg.Shared.put(s.lane.scratch)
		s.lane.scratch = nil
	}
	return active
}

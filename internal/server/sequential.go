package server

import (
	"log"
	"sync/atomic"
	"time"

	"qserve/internal/game"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// Sequential is the unmodified single-threaded server of Figure 1: spin
// in select, then per frame run world physics, drain and execute the
// request queue, and reply to every requester. It performs no region
// locking at all — the baseline the parallel engine's single-thread
// overhead is measured against (§4.1). It is the frame core (frame.go)
// on one lane with no synchronisation added.
type Sequential struct {
	session
	lane lane
	// frames counts completed frames. Atomic because Frames is polled
	// from other goroutines (qserved's -stats ticker) while the loop runs.
	frames atomic.Uint64
}

// NewSequential builds the sequential engine over the first endpoint.
func NewSequential(cfg Config) (*Sequential, error) {
	if err := cfg.fill(false); err != nil {
		return nil, err
	}
	s := &Sequential{}
	s.init(cfg)
	s.lane.conn = cfg.Conns[0]
	s.lanes = []*lane{&s.lane}
	if cfg.Shared == nil {
		// Classic mode owns its buffers for life; with a shared pool they
		// are borrowed per activity burst (step.go).
		s.lane.scratch = newFrameScratch()
	}
	if rs := cfg.Restore; rs != nil {
		s.frames.Store(rs.Frame + 1)
		s.restore(rs)
	}
	return s, nil
}

// Start launches the server loop goroutine.
func (s *Sequential) Start() {
	s.started = time.Now()
	s.lastTick = s.cfg.timeNow()
	if s.lane.scratch == nil {
		// The threaded loop blocks in Recv and can't park buffers at idle
		// points; borrow a scratch set once and keep it for the run.
		s.lane.scratch = s.cfg.Shared.get()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.loop()
	}()
}

func (s *Sequential) loop() {
	ln := &s.lane
	for {
		// S: select.
		t0 := time.Now()
		n, from, err := ln.conn.Recv(ln.scratch.recvBuf, s.cfg.SelectTimeout)
		ln.bd.Charge(metrics.CompIdle, time.Since(t0).Nanoseconds())
		if s.stopping() {
			return
		}
		if err == transport.ErrTimeout {
			continue
		}
		if err != nil {
			return
		}
		s.runFrame(n, from)
	}
}

// runFrame is one server frame: world physics, request drain, reply
// phase, frame bookkeeping. first > 0 is the length of a datagram from
// firstFrom already sitting in the receive buffer — the one the threaded
// loop blocked for; the stepped mode passes 0 and never blocks. It
// reports whether any datagram was processed.
func (s *Sequential) runFrame(first int, firstFrom transport.Addr) (sawTraffic bool) {
	ln := &s.lane
	// P: world physics. It does not touch the receive buffer, so the
	// first datagram keeps until the request phase.
	s.worldTick(ln)

	frameT0 := time.Now()

	// Rx/E: receive and process requests until the queue is empty.
	n, from := first, firstFrom
	for {
		if n > 0 {
			s.bytesIn.Add(int64(n))
			sawTraffic = true
			s.processPacket(ln.scratch.recvBuf[:n], from)
		}
		t0 := time.Now()
		var err error
		n, from, err = ln.conn.Recv(ln.scratch.recvBuf, 0)
		ln.bd.Charge(metrics.CompRecv, time.Since(t0).Nanoseconds())
		if err != nil {
			break
		}
	}

	// T/Tx: form and send replies — but only when someone can receive
	// one. The empty-server skip is what makes an idle match's tick cheap.
	if s.clients.count() > 0 {
		t0 := time.Now()
		s.replyPhase()
		ln.bd.Charge(metrics.CompReply, time.Since(t0).Nanoseconds())
	}

	s.endFrame(ln, s.frames.Load(), frameT0)
	s.frames.Add(1)
	return sawTraffic
}

// processPacket handles one datagram, containing a panic in request
// handling to the client that caused it (see the parallel engine's
// identical policy): the client is evicted and the loop continues — a
// malformed or adversarial request must never take the server down.
func (s *Sequential) processPacket(data []byte, from transport.Addr) {
	defer s.recoverLoop("request")
	if c, m := s.dispatch(&s.lane, data, from); c != nil {
		s.runMove(c, m)
	}
}

// runMove executes one gameplay request with no locking at all: the nil
// Locker short-circuits every lock path.
//
//qvet:phase=exec
func (s *Sequential) runMove(c *client, m *protocol.Move) {
	ln := &s.lane
	ent := s.admitMove(ln, c, m)
	if ent == nil {
		return
	}
	t0 := time.Now()
	res := s.world.ExecuteMove(ent, &m.Cmd, &game.LockContext{})
	ln.bd.Charge(metrics.CompExec, time.Since(t0).Nanoseconds())
	ln.serving.Store(0)
	s.appendEvents(res.Events)
	s.commitMove(ln, c, m)
}

// replyPhase builds the frame's visibility index serially, then runs the
// one lane's reply pass over it.
func (s *Sequential) replyPhase() {
	defer s.recoverLoop("reply")
	ln := &s.lane
	buildT0 := time.Now()
	ln.scratch.vis.Build(s.world)
	ln.bd.SnapBuildNs += time.Since(buildT0).Nanoseconds()
	s.sendReplies(ln, &ln.scratch.vis, uint32(s.frames.Load()))
}

func (s *Sequential) recoverLoop(phase string) {
	r := recover()
	if r == nil {
		return
	}
	ln := &s.lane
	ln.bd.PanicsRecovered++
	var victim *client
	if cid := ln.serving.Swap(0); cid > 0 {
		victim = s.clients.lookupID(uint16(cid - 1))
	}
	if victim != nil {
		s.evictClient(ln, victim, "server error handling your request")
	}
	log.Printf("server: recovered panic in %s phase: %v (evicted client: %v)", phase, r, victim != nil)
}

// Frames returns the number of completed frames.
func (s *Sequential) Frames() uint64 { return s.frames.Load() }

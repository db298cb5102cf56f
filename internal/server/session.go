package server

import (
	"sync"
	"sync/atomic"
	"time"

	"qserve/internal/game"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// session is the thread-independent half of the live server: the world,
// the client table, the global state buffer, the overload ladder, the
// counters and the lifecycle. The engine embeds one and runs the frame
// rules of frame.go against it; what it adds is the threads and their
// synchronisation — barriers always, region locks from Threads: 1 up
// (DESIGN.md §2.1).
type session struct {
	cfg     Config
	world   *game.World
	clients *clientTable
	// workers are the server threads, indexed by client.thread.
	workers []*worker

	// globalMu is the single lock serializing the global state buffer
	// (§3.3: "All accesses to the global state buffer are synchronized
	// with a single lock").
	globalMu    sync.Mutex
	frameEvents []protocol.GameEvent
	// lastTick is the frame-logic clock of the last world tick; frame
	// master only.
	lastTick time.Time

	replies        atomic.Int64
	bytesIn        atomic.Int64
	bytesOut       atomic.Int64
	joinIdx        atomic.Int64
	faultEvictions atomic.Int64

	// shed is the overload ladder; draining refuses new connections
	// during Shutdown.
	shed     shedController
	draining atomic.Bool

	// The fields below are only ever set on two or more threads; the
	// frame rules read them as data, and their zero values are the
	// one-thread behaviour. mux is the balancer's own Mux, whose ports
	// the workers read (nil: no migration; routes go through the
	// workers' ports); stealing arms the per-client execution claim that
	// removals must win first.
	mux      *transport.Mux
	stealing bool

	// pendingResume holds reconnect handshakes for restore-parked clients
	// (DESIGN.md §12) on a multi-thread engine. A Connect may arrive on any
	// thread's endpoint, but resuming rewrites client identity state (addr,
	// key) that the owning thread and the disconnect paths read —
	// so the application is deferred to the frame barrier (applyResumes)
	// where no request is in flight. The Accept is sent immediately; moves
	// sent before the resume lands are dropped and retransmitted by the
	// client's normal tick.
	resumeMu      sync.Mutex
	pendingResume []resumePending

	// Scratch for the frame master's shed-far computation.
	shedClients []*client
	shedDists   []float64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  time.Time
	stopped  time.Time
}

// resumePending is one queued reconnect: the parked client and the
// address its player is now calling from.
type resumePending struct {
	c    *client
	addr transport.Addr
}

// restore resumes a recovered session (crash recovery, DESIGN.md §12):
// the allocation counter picks up where the crashed server left off and
// the survivors are parked for reconnection. Routing a parked client's
// checkpointed address up-front means a survivor calling from the same
// endpoint reaches its owning thread immediately. The engine resumes its
// own frame counter at rs.Frame+1, keeping checkpoint names and replay
// logs monotonic.
func (s *session) restore(rs *RestoreState) {
	s.joinIdx.Store(int64(rs.JoinIdx))
	for _, c := range parkRestoredClients(s.clients, rs, len(s.workers), time.Now()) {
		if p := s.workers[c.thread].port; p != nil {
			p.Route(c.key)
		}
	}
	s.workers[0].bd.RecoveryNs = rs.RecoveryNs
}

// Stop shuts the engine down and waits for its threads to exit. Any
// frame in progress completes first. Stop is idempotent. Breakdowns must
// only be read after Stop returns.
func (s *session) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if s.mux != nil {
			s.mux.Close()
		}
		s.stopped = time.Now()
	})
}

func (s *session) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Shutdown performs a graceful stop: new connection attempts are refused
// immediately, the frame in progress completes (Stop's semantics), and
// every connected client is sent a final Disconnected notice on its
// owning thread's endpoint before being dropped from the table.
func (s *session) Shutdown() {
	s.draining.Store(true)
	s.Stop()
	s.clients.forEach(func(c *client) {
		s.send(s.workers[c.thread], c.addr, &protocol.Disconnected{Reason: "server shutting down"})
		s.clients.remove(c)
	})
}

// send encodes and transmits one control message from the worker's
// endpoint.
func (s *session) send(w *worker, to transport.Addr, msg any) {
	if to == nil {
		return // restore-parked client: no transport address yet
	}
	w.writer.Reset()
	if err := protocol.Encode(&w.writer, msg); err != nil {
		return
	}
	s.bytesOut.Add(int64(len(w.writer.Bytes())))
	_ = w.conn.Send(to, w.writer.Bytes())
}

// SetFrameBudget adjusts the overload ladder's frame budget at runtime
// (0 disables shedding). Safe to call while the server runs.
func (s *session) SetFrameBudget(d time.Duration) { s.shed.setBudget(d) }

// ShedLevel returns the overload ladder's current level.
func (s *session) ShedLevel() int { return int(s.shed.current()) }

// FaultEvictions returns how many clients panic containment evicted.
func (s *session) FaultEvictions() int64 { return s.faultEvictions.Load() }

// Breakdowns returns a copy of each thread's execution-time breakdown.
// Mux queue drops are folded into thread 0's copy so MergeThreads
// reports see them.
func (s *session) Breakdowns() []metrics.Breakdown {
	out := make([]metrics.Breakdown, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.bd
	}
	if s.mux != nil {
		out[0].MuxDrops += s.mux.Drops()
	}
	return out
}

// Replies returns the number of replies sent — the numerator of the
// server response rate.
func (s *session) Replies() int64 { return s.replies.Load() }

// NumClients returns the connected-client count.
func (s *session) NumClients() int { return s.clients.count() }

// BytesIn returns total payload bytes received.
func (s *session) BytesIn() int64 { return s.bytesIn.Load() }

// BytesOut returns total payload bytes sent — with delta compression this
// stays well within a 100 Mbit budget at maximum player counts, matching
// the paper's observation that server bandwidth is not a bottleneck.
func (s *session) BytesOut() int64 { return s.bytesOut.Load() }

// Duration returns the run's wall-clock duration.
func (s *session) Duration() time.Duration {
	if s.stopped.IsZero() {
		return time.Since(s.started)
	}
	return s.stopped.Sub(s.started)
}

// Engine is the live server's lifecycle and counter surface, by which
// bench/qload holds its engines.
type Engine interface {
	Start()
	Stop()
	Shutdown()
	Breakdowns() []metrics.Breakdown
	Replies() int64
	Frames() uint64
	NumClients() int
	Duration() time.Duration
	BytesIn() int64
	BytesOut() int64
}

var _ Engine = (*Parallel)(nil)

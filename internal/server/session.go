package server

import (
	"sync"
	"sync/atomic"
	"time"

	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// session is the engine-independent half of a live server: the world,
// the client table, the global state buffer, the overload ladder, the
// counters and the lifecycle. Both engines embed one and run the frame
// rules of frame.go against it; what they add is synchronisation —
// nothing for Sequential, barriers and region locks for Parallel
// (DESIGN.md §2.1).
type session struct {
	cfg     Config
	world   *game.World
	clients *clientTable
	// lanes are the server threads, indexed by client.thread: one for
	// Sequential, one per worker for Parallel.
	lanes []*lane

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

	// The fields below are only ever set by the parallel engine; the
	// frame rules read them as data, and their zero values are the
	// sequential engine's behaviour. mux re-routes migrated clients'
	// datagrams (nil: no routing); stealing arms the per-client execution
	// claim that removals must win first.
	mux      *transport.Mux
	stealing bool

	// worldGuard makes abandonment race-free. Request-phase world
	// mutations on a locking lane always hold its read side (shared — they
	// are already serialized against each other by region locks, so this
	// costs two uncontended atomics per request). World readers that the
	// barrier normally protects — the reply phase, the world update, the
	// shed-far scan — take the write side, but only while a zombie is
	// outstanding (fc.hasZombies): an abandoned worker may wake from its
	// wedge at any moment and finish the request it was executing, and its
	// read-side section is the only thing those lockless readers can
	// synchronize with. In normal operation the guard is never locked
	// exclusively and readers skip it entirely.
	worldGuard sync.RWMutex

	// pendingResume holds reconnect handshakes for restore-parked clients
	// (DESIGN.md §12) on a multi-lane engine. A Connect may arrive on any
	// thread's endpoint, but resuming rewrites client identity state (addr,
	// byAddr key) that the owning thread and the disconnect paths read —
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

// lane is one server thread's private state: its endpoint, its share of
// the execution-time breakdown, and the buffers its request and reply
// processing reuse. Sequential owns one; every parallel worker embeds
// one.
type lane struct {
	id int
	// conn is the lane's receive side: the thread's endpoint, or its mux
	// port under load balancing. Replies leave through it too.
	conn transport.Conn
	bd   metrics.Breakdown
	// writer encodes control messages (send).
	writer protocol.Writer
	// scratch is the per-frame buffer set; nil only while a stepped
	// engine has parked it in the shared pool (step.go).
	scratch *frameScratch

	// locker takes this lane's region locks. Nil on the sequential engine:
	// spawns and removals then run unguarded, exactly as a nil
	// game.LockContext.Locker runs moves lock-free.
	locker *locking.RegionLocker

	// serving publishes the client whose request or reply the lane is
	// processing right now (id+1; 0 = none), for panic containment and the
	// watchdog.
	serving atomic.Int32

	// zombie marks a lane the watchdog abandoned mid-frame; never set on
	// an engine without one. It mirrors the frame controller's verdict as
	// a cheap atomic so the request drain loop can poll it per datagram
	// without taking the controller's mutex. The controller's map stays
	// authoritative; this is only the fast-path signal.
	zombie atomic.Bool
}

// init fills the engine-independent state. The engine constructor then
// registers its lanes and, when recovering, calls restore.
func (s *session) init(cfg Config) {
	s.cfg = cfg
	s.world = cfg.World
	s.clients = newClientTable(cfg.MaxClients)
	s.stop = make(chan struct{})
	s.shed.init(&s.cfg)
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
	for _, c := range parkRestoredClients(s.clients, rs, len(s.lanes), time.Now()) {
		if s.mux != nil && c.addrStr != "" {
			s.mux.Route(transport.MemAddr(c.addrStr), c.thread)
		}
	}
	s.lanes[0].bd.RecoveryNs = rs.RecoveryNs
}

// Stop shuts the engine down and waits for its threads to exit. Any
// frame in progress completes first. Stop is idempotent. Breakdowns (and
// the parallel engine's frame log) must only be read after Stop returns.
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
		s.send(s.lanes[c.thread], c.addr, &protocol.Disconnected{Reason: "server shutting down"})
		s.clients.remove(c)
	})
}

// send encodes and transmits one control message from the lane's
// endpoint.
func (s *session) send(ln *lane, to transport.Addr, msg any) {
	if to == nil {
		return // restore-parked client: no transport address yet
	}
	ln.writer.Reset()
	if err := protocol.Encode(&ln.writer, msg); err != nil {
		return
	}
	s.bytesOut.Add(int64(len(ln.writer.Bytes())))
	_ = ln.conn.Send(to, ln.writer.Bytes())
}

// SetFrameBudget adjusts the overload ladder's frame budget at runtime
// (0 disables shedding). Safe to call while the server runs.
func (s *session) SetFrameBudget(d time.Duration) { s.shed.setBudget(d) }

// ShedLevel returns the overload ladder's current level.
func (s *session) ShedLevel() int { return int(s.shed.current()) }

// FaultEvictions returns how many clients were evicted by the
// containment paths (panic recovery and wedge quarantine).
func (s *session) FaultEvictions() int64 { return s.faultEvictions.Load() }

// Breakdowns returns a copy of each thread's execution-time breakdown.
// Mux queue drops are folded into thread 0's copy so MergeThreads
// reports see them.
func (s *session) Breakdowns() []metrics.Breakdown {
	out := make([]metrics.Breakdown, len(s.lanes))
	for i, ln := range s.lanes {
		out[i] = ln.bd
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

// Engine is the interface both live servers satisfy, letting tests,
// examples, and the harness treat them uniformly.
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

var (
	_ Engine = (*Sequential)(nil)
	_ Engine = (*Parallel)(nil)
)

package match

import (
	"sync"
	"sync/atomic"
	"time"

	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/transport"
)

// Lobby is the admission tier of a match-manager deployment: one
// underlying datagram endpoint shared by every match, fanned out by a
// transport.Mux. Each match owns a dynamically added mux port; the
// routing table maps a client's sender key to its match's port, so
// gameplay traffic reaches the right engine without the lobby on the
// path. Unrouted datagrams (new clients) land on the control port: the
// lobby decodes the Connect, picks a match — the datagram's Match field
// names one, empty means "assign me" (rotation over live matches) —
// routes the sender to the match's port, and forwards the original
// Connect into it, so the engine itself runs its normal admission path
// and the Accept the client sees is indistinguishable from a solo
// server's.
//
// From then on the engine owns the route, as it owns the routes of its
// own Mux: it unroutes the client through the same port when it leaves
// (disconnect, timeout reap), and only while the route still points at
// that port. Reconnects from a routed sender flow straight to their
// match; a client that wants another match disconnects, and its next
// Connect reaches the lobby again. (Match eviction stops the engine
// without removing its clients, so their routes stay until the lobby
// closes.)
type Lobby struct {
	mgr *Manager
	mux *transport.Mux
	ctl transport.Conn

	mu    sync.Mutex
	names []string // assignment rotation, admission order
	next  int

	routed  atomic.Int64
	rejects atomic.Int64

	stopc     chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// lobbyPumpTick bounds how long the lobby blocks in Recv before
// re-checking for shutdown.
const lobbyPumpTick = 20 * time.Millisecond

// NewLobby wraps the endpoint in a Mux and starts the admission loop.
// The Lobby does not own conn; Close stops the loop and the mux pumps
// but leaves the endpoint open.
func NewLobby(mgr *Manager, conn transport.Conn) *Lobby {
	mux := transport.NewMux([]transport.Conn{conn})
	l := &Lobby{
		mgr:   mgr,
		mux:   mux,
		ctl:   mux.Port(0),
		stopc: make(chan struct{}),
	}
	l.wg.Add(1)
	go l.run()
	return l
}

// CreateMatch adds a mux port, builds an engine over it via build, and
// registers the result as a named match. The build callback must thread
// the manager's Shared pool into the engine Config for the idle-match
// memory bound to hold.
func (l *Lobby) CreateMatch(name string, build func(conn transport.Conn) (*server.Parallel, error)) (*Match, error) {
	_, port := l.mux.AddPort()
	eng, err := build(port)
	if err != nil {
		return nil, err
	}
	mt, err := l.mgr.add(name, eng, port)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.names = append(l.names, name)
	l.mu.Unlock()
	return mt, nil
}

// Close stops the admission loop and the mux pumps.
func (l *Lobby) Close() {
	l.closeOnce.Do(func() {
		close(l.stopc)
		l.wg.Wait()
		l.mux.Close()
	})
}

// Routed returns how many connects the lobby admitted to a match.
func (l *Lobby) Routed() int64 { return l.routed.Load() }

// Rejects returns how many connects named a match that doesn't exist.
func (l *Lobby) Rejects() int64 { return l.rejects.Load() }

func (l *Lobby) run() {
	defer l.wg.Done()
	buf := make([]byte, transport.MaxDatagram)
	var wr protocol.Writer
	for {
		select {
		case <-l.stopc:
			return
		default:
		}
		n, from, err := l.ctl.Recv(buf, lobbyPumpTick)
		if err == transport.ErrTimeout {
			continue
		}
		if err != nil {
			return
		}
		msg, err := protocol.Decode(buf[:n])
		if err != nil {
			continue // corrupt datagram; same fate as anywhere else
		}
		c, ok := msg.(*protocol.Connect)
		if !ok {
			// Gameplay traffic from an unknown source: no session, no
			// route. Dropping mirrors what a solo server's seq filter
			// would do with it.
			continue
		}
		mt := l.pick(c.Match)
		if mt == nil {
			l.rejects.Add(1)
			wr.Reset()
			if protocol.Encode(&wr, &protocol.Reject{Reason: "no such match"}) == nil {
				_ = l.ctl.Send(from, wr.Bytes())
			}
			continue
		}
		// Route first, then forward: the engine's Accept must not race a
		// Move the client fires immediately after it.
		mt.port.Route(transport.KeyOf(from))
		mt.port.Forward(buf[:n], from)
		l.mgr.Poke(mt.name)
		l.routed.Add(1)
	}
}

// pick resolves a Connect's match choice: a name looks up the live
// match table (nil if evicted or unknown), empty rotates over matches
// in admission order, skipping evicted ones.
func (l *Lobby) pick(want string) *Match {
	if want != "" {
		return l.mgr.lookup(want)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < len(l.names); i++ {
		n := l.names[(l.next+i)%len(l.names)]
		if mt := l.mgr.lookup(n); mt != nil {
			l.next = (l.next + i + 1) % len(l.names)
			return mt
		}
	}
	return nil
}

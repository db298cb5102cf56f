package transport

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"
)

// Mux fans a server's N thread endpoints into N routable ports so the
// load balancer can migrate a client between threads without the client
// noticing. The paper's static design hands each thread its own UDP
// endpoint and clients keep sending to the endpoint named in Accept;
// once clients migrate, a datagram can arrive at the endpoint of a
// thread that no longer owns the sender. The Mux sits between the real
// endpoints and the worker threads: one pump goroutine per underlying
// conn drains datagrams and enqueues each onto the port chosen by a
// source-address routing table (defaulting to the arrival endpoint's own
// port, which reproduces the static behavior exactly).
//
// The frame master updates routes at the rebalance barrier; Forward lets
// a worker bounce an already-received datagram to the owning thread's
// port, so commands in flight across a migration are executed rather
// than dropped.
//
// The Mux does not own the underlying conns: Close stops the pumps but
// leaves the conns open for their creator to close.
type Mux struct {
	conns []Conn
	ports []*MuxPort

	mu    sync.Mutex
	route map[string]int // source address → port index

	// drops counts datagrams lost to port-queue overflow; the pre-fix
	// behavior dropped them silently, hiding receive-queue pressure from
	// every report. dropsBySrc drives the sampled per-client log.
	drops      atomic.Int64
	dropsBySrc map[string]int64

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// muxDropLogSample is the per-client sampling rate of the overflow log:
// the first drop for a source logs immediately, then one line per this
// many further drops, so a flooding client cannot flood the log too.
const muxDropLogSample = 1024

// muxPumpTick bounds how long a pump blocks in Recv before re-checking
// for shutdown, so Close returns promptly without closing the conns.
const muxPumpTick = 20 * time.Millisecond

// muxQueueLen bounds each port's receive queue; overflow drops, as a
// full socket buffer would.
const muxQueueLen = 1024

// NewMux wraps conns and starts one pump goroutine per conn.
func NewMux(conns []Conn) *Mux {
	m := &Mux{
		conns:      conns,
		ports:      make([]*MuxPort, len(conns)),
		route:      make(map[string]int),
		dropsBySrc: make(map[string]int64),
		stop:       make(chan struct{}),
	}
	for i, c := range conns {
		m.ports[i] = &MuxPort{
			mux:   m,
			inner: c,
			queue: make(chan memPacket, muxQueueLen),
		}
	}
	for i := range conns {
		m.wg.Add(1)
		go m.pump(i)
	}
	return m
}

// Port returns the routable Conn for worker i.
func (m *Mux) Port(i int) *MuxPort {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ports[i]
}

// AddPort appends a new routable port at runtime and returns its index
// and Conn. The port sends through the first underlying endpoint (a
// match-manager deployment runs one socket shared by every match), and
// receives whatever the routing table directs at it. Safe to call
// concurrently with pumps; existing port indices never change.
func (m *Mux) AddPort() (int, *MuxPort) {
	p := &MuxPort{
		mux:   m,
		inner: m.conns[0],
		queue: make(chan memPacket, muxQueueLen),
	}
	m.mu.Lock()
	idx := len(m.ports)
	m.ports = append(m.ports, p)
	m.mu.Unlock()
	return idx, p
}

// Route directs future datagrams from addr to the given port. Safe to
// call concurrently with pumps (connect handling) and from the frame
// master (migration).
func (m *Mux) Route(addr Addr, port int) {
	m.mu.Lock()
	if port >= 0 && port < len(m.ports) {
		m.route[addr.String()] = port
	}
	m.mu.Unlock()
}

// Unroute forgets a source address (client disconnected or evicted);
// its datagrams fall back to arrival-endpoint routing.
func (m *Mux) Unroute(addr Addr) {
	m.mu.Lock()
	delete(m.route, addr.String())
	delete(m.dropsBySrc, addr.String())
	m.mu.Unlock()
}

// Forward re-injects an already-received datagram into another port's
// queue, preserving the original source address (the Addr value itself,
// so a reply to it needs no re-resolving). Workers use it when a
// datagram for a migrated client arrives before the client's routing
// update takes effect. The data is copied; the caller may reuse it.
func (m *Mux) Forward(port int, data []byte, from Addr) {
	m.mu.Lock()
	var dst *MuxPort
	if port >= 0 && port < len(m.ports) {
		dst = m.ports[port]
	}
	m.mu.Unlock()
	if dst == nil {
		return
	}
	pb := pktPool.Get().(*pktBuf)
	pb.b = append(pb.b[:0], data...)
	dst.enqueue(memPacket{buf: pb, from: from})
}

// Close stops the pump goroutines and wakes any blocked port Recv. The
// underlying conns are left open.
func (m *Mux) Close() {
	m.closeOnce.Do(func() {
		close(m.stop)
		m.wg.Wait()
	})
}

// pump drains endpoint i into the per-port receive queues for the
// lifetime of the mux; its steady-state loop allocates nothing.
//
//qvet:noalloc
func (m *Mux) pump(i int) {
	defer m.wg.Done()
	//qvet:allow=noalloc one receive buffer per pump goroutine, at startup
	buf := make([]byte, MaxDatagram)
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		n, from, err := m.conns[i].Recv(buf, muxPumpTick)
		if err == ErrTimeout {
			continue
		}
		if err != nil {
			return // conn closed out from under us
		}
		key := from.String()
		m.mu.Lock()
		port, ok := m.route[key]
		if !ok {
			port = i // unknown sender: static behavior, arrival endpoint's thread
		}
		var dst *MuxPort
		if port >= 0 && port < len(m.ports) {
			dst = m.ports[port]
		}
		m.mu.Unlock()
		if dst == nil {
			continue
		}
		pb := pktPool.Get().(*pktBuf)
		pb.b = append(pb.b[:0], buf[:n]...)
		dst.enqueue(memPacket{buf: pb, from: from})
	}
}

// MuxPort is one worker-facing Conn of a Mux.
type MuxPort struct {
	mux   *Mux
	inner Conn
	queue chan memPacket
}

// enqueue delivers one pumped datagram to this port's receive queue.
// The fast path (queue accepts) is allocation-free; only the sampled
// overflow log on the drop path allocates.
//
//qvet:noalloc
func (p *MuxPort) enqueue(pkt memPacket) {
	select {
	case p.queue <- pkt:
	default:
		// Receive-queue overflow: the datagram is lost, as with a full
		// socket buffer — but never silently. The counter feeds the
		// engine's metrics and the sampled log names the flooding source.
		from := pkt.from.String()
		pkt.release()
		p.mux.drops.Add(1)
		p.mux.mu.Lock()
		p.mux.dropsBySrc[from]++
		n := p.mux.dropsBySrc[from]
		p.mux.mu.Unlock()
		if n == 1 || n%muxDropLogSample == 0 {
			//qvet:allow=noalloc sampled overflow log; drop path only
			log.Printf("transport: mux queue overflow, dropped datagram from %s (%d total from this source)", from, n)
		}
	}
}

// Drops returns the number of datagrams lost to port-queue overflow.
func (m *Mux) Drops() int64 { return m.drops.Load() }

// Send implements Conn, transmitting from the port's own endpoint so
// replies carry the address the client expects.
func (p *MuxPort) Send(to Addr, data []byte) error { return p.inner.Send(to, data) }

// Recv implements Conn with the standard timeout semantics.
func (p *MuxPort) Recv(buf []byte, timeout time.Duration) (int, Addr, error) {
	select {
	case pkt := <-p.queue:
		return copyPacket(buf, pkt)
	case <-p.mux.stop:
		return 0, nil, ErrClosed
	default:
	}
	if timeout == 0 {
		return 0, nil, ErrTimeout
	}
	if timeout < 0 {
		select {
		case pkt := <-p.queue:
			return copyPacket(buf, pkt)
		case <-p.mux.stop:
			return 0, nil, ErrClosed
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case pkt := <-p.queue:
		return copyPacket(buf, pkt)
	case <-p.mux.stop:
		return 0, nil, ErrClosed
	case <-timer.C:
		return 0, nil, ErrTimeout
	}
}

// LocalAddr implements Conn; it names the underlying endpoint, so
// Accept messages keep advertising real client-visible addresses.
func (p *MuxPort) LocalAddr() Addr { return p.inner.LocalAddr() }

// Close implements Conn. Ports close with their Mux, not individually.
func (p *MuxPort) Close() error { return nil }

// Pending returns the number of queued datagrams (diagnostics).
func (p *MuxPort) Pending() int { return len(p.queue) }

var _ Conn = (*MuxPort)(nil)

// muxResolve keeps ResolveLike working through a Mux: addresses are
// resolved against the underlying endpoint's transport.
func muxResolve(p *MuxPort, s string) (Addr, error) {
	if p.inner == nil {
		return nil, fmt.Errorf("transport: mux port has no inner conn")
	}
	return ResolveLike(p.inner, s)
}

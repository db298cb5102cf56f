package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// MemAddr is an in-memory network address.
type MemAddr string

// Network implements Addr.
func (MemAddr) Network() string { return "mem" }

// String implements Addr.
func (a MemAddr) String() string { return string(a) }

// NetworkConfig tunes the simulated link every in-memory packet crosses.
// The zero value is a perfect network: instant, lossless delivery.
type NetworkConfig struct {
	// Latency is the fixed one-way delivery delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// LossProb drops each packet independently with this probability.
	LossProb float64
	// Seed makes jitter and loss deterministic.
	Seed int64
	// QueueLen bounds each endpoint's receive queue; packets beyond it
	// are dropped, modelling socket buffer overflow. Default 512.
	QueueLen int
}

// Network is an in-process packet switch connecting MemConns. It is safe
// for concurrent use.
type Network struct {
	mu     sync.Mutex
	ports  map[MemAddr]*MemConn
	rng    *rand.Rand
	cfg    NetworkConfig
	nextID int

	// Stats.
	sent, delivered, dropped int64
}

// NewNetwork creates a switch with the given link characteristics.
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 512
	}
	return &Network{
		ports: make(map[MemAddr]*MemConn),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg,
	}
}

// Stats reports packets sent, delivered, and dropped since creation.
func (n *Network) Stats() (sent, delivered, dropped int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.delivered, n.dropped
}

// pktBuf wraps a pooled payload buffer. The pointer wrapper keeps
// sync.Pool round-trips allocation-free (storing a bare []byte in the
// pool would box the slice header on every Put).
type pktBuf struct {
	b []byte
}

//qvet:allow=globalstate process-wide datagram buffer pool by design; holds no game state
var pktPool = sync.Pool{
	New: func() any { return &pktBuf{b: make([]byte, 0, MaxDatagram)} },
}

type memPacket struct {
	buf  *pktBuf // pooled; returned after the payload is copied out or dropped
	from Addr    // as the receiving endpoint reported it: a Mux hands UDP sources on unconverted
}

// release returns the packet's buffer to the pool. Every delivery path —
// received, queue overflow, closed endpoint — must call it exactly once.
func (p memPacket) release() {
	if p.buf != nil {
		pktPool.Put(p.buf)
	}
}

// MemConn is one endpoint of a Network.
type MemConn struct {
	net   *Network
	addr  MemAddr
	queue chan memPacket

	closeOnce sync.Once
	closed    chan struct{}
}

// Listen opens an endpoint with the given name; an empty name allocates
// one. It fails if the name is taken.
func (n *Network) Listen(name string) (*MemConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := MemAddr(name)
	if name == "" {
		n.nextID++
		addr = MemAddr(fmt.Sprintf("mem:%d", n.nextID))
	}
	if _, taken := n.ports[addr]; taken {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	c := &MemConn{
		net:    n,
		addr:   addr,
		queue:  make(chan memPacket, n.cfg.QueueLen),
		closed: make(chan struct{}),
	}
	n.ports[addr] = c
	return c, nil
}

// Send implements Conn.
func (c *MemConn) Send(to Addr, data []byte) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	n := c.net
	n.mu.Lock()
	n.sent++
	dst, ok := n.ports[MemAddr(to.String())]
	if !ok {
		n.dropped++
		n.mu.Unlock()
		return ErrUnknownAddr
	}
	if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
		n.dropped++
		n.mu.Unlock()
		return nil // lost in transit: sender cannot tell, as with UDP
	}
	delay := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	n.mu.Unlock()

	// Copy the payload into a pooled buffer before returning: the Conn
	// contract lets the caller reuse data immediately.
	pb := pktPool.Get().(*pktBuf)
	pb.b = append(pb.b[:0], data...)
	pkt := memPacket{buf: pb, from: c.addr}
	if delay <= 0 {
		dst.deliver(pkt)
		return nil
	}
	time.AfterFunc(delay, func() { dst.deliver(pkt) })
	return nil
}

func (c *MemConn) deliver(pkt memPacket) {
	n := c.net
	select {
	case <-c.closed:
		n.mu.Lock()
		n.dropped++
		n.mu.Unlock()
		pkt.release()
		return
	default:
	}
	select {
	case c.queue <- pkt:
		n.mu.Lock()
		n.delivered++
		n.mu.Unlock()
	default:
		// Receive queue overflow: drop, as a full socket buffer would.
		n.mu.Lock()
		n.dropped++
		n.mu.Unlock()
		pkt.release()
	}
}

// Recv implements Conn.
func (c *MemConn) Recv(buf []byte, timeout time.Duration) (int, Addr, error) {
	// Fast path: packet already queued.
	select {
	case pkt := <-c.queue:
		return copyPacket(buf, pkt)
	case <-c.closed:
		return 0, nil, ErrClosed
	default:
	}
	if timeout == 0 {
		return 0, nil, ErrTimeout
	}
	if timeout < 0 {
		select {
		case pkt := <-c.queue:
			return copyPacket(buf, pkt)
		case <-c.closed:
			return 0, nil, ErrClosed
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case pkt := <-c.queue:
		return copyPacket(buf, pkt)
	case <-c.closed:
		return 0, nil, ErrClosed
	case <-timer.C:
		return 0, nil, ErrTimeout
	}
}

func copyPacket(buf []byte, pkt memPacket) (int, Addr, error) {
	n := copy(buf, pkt.buf.b)
	pkt.release()
	return n, pkt.from, nil
}

// Pending returns the number of queued datagrams (diagnostics).
func (c *MemConn) Pending() int { return len(c.queue) }

// LocalAddr implements Conn.
func (c *MemConn) LocalAddr() Addr { return c.addr }

// Close implements Conn.
func (c *MemConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		n := c.net
		n.mu.Lock()
		delete(n.ports, c.addr)
		n.mu.Unlock()
	})
	return nil
}

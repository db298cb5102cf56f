// Package transport abstracts the datagram layer under the server and its
// clients. Two implementations exist:
//
//   - UDPConn wraps a real UDP socket, for deployments matching the
//     paper's testbed (a server machine and a LAN of client machines);
//   - Network/MemConn is an in-process packet network with optional
//     seeded latency, jitter, and loss, used by tests, examples, and the
//     benchmark harness so experiments are deterministic and run anywhere.
//
// The Conn interface mirrors how the engine uses sockets: blocking
// receive with a timeout (the select(2) idiom in the paper's Figure 1)
// and connectionless sends.
package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"
)

// Addr is where a datagram came from or goes to: a *net.UDPAddr over
// UDP, a MemAddr in memory. Sends take it as given; which sender it
// names is decided by its Key.
type Addr interface {
	Network() string
	String() string
}

// Key is a sender's identity: the one answer to "is this the same
// sender?" for every table keyed by sender (Mux routes, the server's
// client table). A UDP sender keys by its address and port, with an
// IPv4-mapped IPv6 address unmapped, so the 4- and 16-byte forms of one
// address are one sender; an in-memory sender keys by its name.
type Key struct {
	ap   netip.AddrPort
	name string
}

// KeyOf returns the sender identity of a. It parses nothing: keying the
// *net.UDPAddr a socket reports allocates nothing, and any other Addr
// keys by its String().
func KeyOf(a Addr) Key {
	if ua, ok := a.(*net.UDPAddr); ok && ua != nil {
		if ap := ua.AddrPort(); ap.Addr().IsValid() {
			return Key{ap: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
		}
	}
	return Key{name: a.String()}
}

// ParseKey is the inverse of AppendTo: the Key of the sender whose text
// is s, as recorded in a checkpoint. An ip:port parses to the key its UDP
// sender has; anything else is an in-memory name (which is never an
// ip:port).
func ParseKey(s string) Key {
	if ap, err := netip.ParseAddrPort(s); err == nil {
		return Key{ap: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
	}
	return Key{name: s}
}

// AppendTo appends the sender's text — what its Addr's String() reads —
// to b.
func (k Key) AppendTo(b []byte) []byte {
	if k.ap.IsValid() {
		return k.ap.AppendTo(b)
	}
	return append(b, k.name...)
}

// Errors returned by Conn implementations.
var (
	// ErrTimeout reports that Recv's timeout expired with no packet.
	ErrTimeout = errors.New("transport: receive timeout")
	// ErrClosed reports use of a closed connection.
	ErrClosed = errors.New("transport: connection closed")
	// ErrUnknownAddr reports a send to an address with no listener; the
	// in-memory network surfaces this where UDP would silently drop.
	ErrUnknownAddr = errors.New("transport: unknown destination")
)

// MaxDatagram is the largest payload a Conn must carry. It matches a
// conventional safe UDP MTU budget.
const MaxDatagram = 1400

// Conn is one endpoint (one UDP port). Implementations are safe for one
// concurrent reader and any number of senders.
//
// Buffer ownership contract: Send copies (or hands to the kernel) the
// payload before returning, and never retains or mutates data — the
// caller may reuse the slice immediately, which is what lets the server's
// reply pipeline encode every datagram into one per-thread scratch
// buffer. Symmetrically, Recv owns buf only for the duration of the
// call: on return the datagram has been fully copied into buf[:n] and no
// internal reference to buf remains. Internal packet buffers (MemConn
// pools them) never alias caller memory in either direction.
type Conn interface {
	// Send transmits data to the destination. The data slice is not
	// retained — it is free for reuse as soon as Send returns.
	Send(to Addr, data []byte) error
	// Recv blocks up to timeout for a datagram, copying it into buf and
	// returning its length and source. A negative timeout blocks
	// indefinitely. Zero polls: Recv returns a queued datagram or
	// ErrTimeout without waiting for one to arrive. On a unix UDPConn a
	// poll is one non-blocking recvfrom and arms no timer, so an engine
	// draining its requests stops the moment the socket is empty.
	// Returns ErrTimeout on expiry. Only buf[:n] is written; bytes beyond
	// n keep their previous content, so callers reusing one receive
	// buffer must bound reads by n. The source may be the same value for
	// every datagram from one sender and must be treated as read-only.
	Recv(buf []byte, timeout time.Duration) (int, Addr, error)
	// LocalAddr returns this endpoint's address.
	LocalAddr() Addr
	// Resolve parses an address string into this endpoint's Addr family:
	// MemAddr in memory, *net.UDPAddr over UDP. Clients use it to
	// interpret the server's Accept.Addr field; a wrapping Conn resolves
	// through the Conn it wraps.
	Resolve(s string) (Addr, error)
	// Close releases the endpoint; pending and future Recvs return
	// ErrClosed.
	Close() error
}

// UDPConn adapts a real UDP socket to Conn. Recv lives in udp_unix.go,
// with a deadline-read fallback for other platforms in udp_other.go;
// Batch's sendmmsg path lives in batch_linux.go.
type UDPConn struct {
	pc   *net.UDPConn
	recv udpRecv // receive state, owned by the conn's one reader
	send udpSend // batched-send state, read-only after ListenUDP
}

// ListenUDP opens a UDP endpoint on the given address ("127.0.0.1:0"
// picks a free port).
func ListenUDP(addr string) (*UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	pc, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	c := &UDPConn{pc: pc}
	if err := c.recv.init(c); err != nil {
		pc.Close()
		return nil, fmt.Errorf("transport: %w", err)
	}
	if err := c.send.init(c); err != nil {
		pc.Close()
		return nil, fmt.Errorf("transport: %w", err)
	}
	return c, nil
}

// Send implements Conn.
func (c *UDPConn) Send(to Addr, data []byte) error {
	ua, ok := to.(*net.UDPAddr)
	if !ok {
		ra, err := net.ResolveUDPAddr("udp", to.String())
		if err != nil {
			return fmt.Errorf("transport: bad udp addr %q: %w", to.String(), err)
		}
		ua = ra
	}
	_, err := c.pc.WriteToUDP(data, ua)
	return err
}

// recvResult finishes a UDP receive for Conn: the net package's deadline
// and closed errors become ErrTimeout and ErrClosed, and an error comes
// with a nil source.
func recvResult(n int, from net.Addr, err error) (int, Addr, error) {
	switch {
	case err == nil:
		return n, from, nil
	case errors.Is(err, os.ErrDeadlineExceeded):
		return 0, nil, ErrTimeout
	case errors.Is(err, net.ErrClosed):
		return 0, nil, ErrClosed
	}
	return 0, nil, err
}

// LocalAddr implements Conn.
func (c *UDPConn) LocalAddr() Addr { return c.pc.LocalAddr().(*net.UDPAddr) }

// Resolve implements Conn.
func (c *UDPConn) Resolve(s string) (Addr, error) {
	ua, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return ua, nil
}

// Close implements Conn.
func (c *UDPConn) Close() error { return c.pc.Close() }

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
	"os"
	"time"
)

// Addr identifies a transport endpoint. Implementations must be usable as
// map keys via String().
type Addr interface {
	Network() string
	String() string
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
	// Close releases the endpoint; pending and future Recvs return
	// ErrClosed.
	Close() error
}

// ResolveLike parses an address string into the Addr family of the given
// connection: MemAddr for in-memory endpoints, *net.UDPAddr for UDP.
// Clients use it to interpret the server's Accept.Addr field.
func ResolveLike(c Conn, s string) (Addr, error) {
	switch cc := c.(type) {
	case *MemConn:
		return MemAddr(s), nil
	case *MuxPort:
		return muxResolve(cc, s)
	case *FaultConn:
		return ResolveLike(cc.inner, s)
	case *UDPConn:
		ua, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		return ua, nil
	default:
		return nil, fmt.Errorf("transport: cannot resolve %q for %T", s, c)
	}
}

// UDPConn adapts a real UDP socket to Conn. Recv lives in udp_unix.go,
// with a deadline-read fallback for other platforms in udp_other.go.
type UDPConn struct {
	pc   *net.UDPConn
	recv udpRecv // receive state, owned by the conn's one reader
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

// Close implements Conn.
func (c *UDPConn) Close() error { return c.pc.Close() }

//go:build unix && !(linux && 386) && !solaris && !aix

// The ports excluded above have no syscall.SYS_RECVFROM and build
// udp_other.go instead.

package transport

import (
	"errors"
	"net"
	"net/netip"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// addrTableCap bounds a conn's source intern table. It is emptied when
// full, so a server that hears from ever more addresses holds at most
// this many; an address dropped that way is interned again on its next
// datagram.
const addrTableCap = 4096

// errSourceFamily reports a datagram whose sender is neither IPv4 nor
// IPv6, which a UDP socket does not produce.
var errSourceFamily = errors.New("transport: datagram source is not an IP address")

// addrKey identifies a sender in the intern table. scope is the IPv6
// zone index, which net.UDPAddr turns into a zone name.
type addrKey struct {
	ap    netip.AddrPort
	scope uint32
}

// udpRecv is UDPConn's receive state, owned by the conn's one reader.
// Every receive attempt is one recvfrom(MSG_DONTWAIT) inside
// RawConn.Read, so Go's poller still parks a timed or blocking Recv
// between attempts, while a poll makes exactly one attempt and never
// parks. That is what ends a sequential frame's Rx/E phase the moment
// the socket is empty: a deadline-based poll waits for its timer instead,
// and Go's poller rounds even a 100 µs deadline up to about a millisecond.
type udpRecv struct {
	rc      syscall.RawConn
	attempt func(fd uintptr) bool // once, bound at init so Recv allocates nothing

	// One attempt's argument, mode and results. buf is held only for the
	// duration of a Recv.
	buf    []byte
	park   bool // wait in the poller when the socket is empty
	n      int
	errno  syscall.Errno
	rsa    syscall.RawSockaddrAny
	rsaLen uint32

	deadline bool // a timed Recv left a read deadline set

	addrs map[addrKey]*net.UDPAddr
}

func (r *udpRecv) init(c *UDPConn) error {
	rc, err := c.pc.SyscallConn()
	if err != nil {
		return err
	}
	r.rc, r.attempt = rc, r.once
	r.addrs = make(map[addrKey]*net.UDPAddr)
	return nil
}

// Recv implements Conn.
//
//qvet:noalloc
func (c *UDPConn) Recv(buf []byte, timeout time.Duration) (int, Addr, error) {
	r := &c.recv
	if err := r.setDeadline(c.pc, timeout); err != nil {
		return recvResult(0, nil, err)
	}
	r.buf, r.park = buf, timeout != 0
	err := r.rc.Read(r.attempt)
	r.buf = nil
	switch {
	case err != nil:
		return recvResult(0, nil, err)
	case r.errno == syscall.EAGAIN:
		return 0, nil, ErrTimeout
	case r.errno != 0:
		return 0, nil, r.errno //qvet:allow=noalloc error path: recvfrom failed with neither EAGAIN nor EINTR
	}
	from := r.source()
	if from == nil {
		return 0, nil, errSourceFamily
	}
	return r.n, from, nil
}

// setDeadline arms the deadline a timed Recv parks under, and clears one
// an earlier timed Recv left behind: Go's poller fails a read past its
// deadline without calling back, so a stale deadline would turn every
// later poll into a timeout that never looks at the socket.
func (r *udpRecv) setDeadline(pc *net.UDPConn, timeout time.Duration) error {
	if timeout > 0 {
		r.deadline = true
		return pc.SetReadDeadline(time.Now().Add(timeout))
	}
	if !r.deadline {
		return nil
	}
	r.deadline = false
	return pc.SetReadDeadline(time.Time{})
}

// once is the RawConn.Read callback: one recvfrom(MSG_DONTWAIT) into
// r.buf and r.rsa. It reports false — park, then call again — only when
// the socket is empty and the Recv may wait.
//
//qvet:noalloc
func (r *udpRecv) once(fd uintptr) bool {
	for {
		r.rsaLen = syscall.SizeofSockaddrAny
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, fd,
			uintptr(unsafe.Pointer(unsafe.SliceData(r.buf))), uintptr(len(r.buf)),
			syscall.MSG_DONTWAIT,
			uintptr(unsafe.Pointer(&r.rsa)), uintptr(unsafe.Pointer(&r.rsaLen)))
		switch {
		case errno == syscall.EINTR:
			continue
		case errno == syscall.EAGAIN && r.park:
			return false
		}
		r.n, r.errno = int(n), errno
		return true
	}
}

// source returns the sender of the datagram the last attempt read, or
// nil for a non-IP sockaddr. A sender already in the intern table costs
// one map lookup, and every datagram from it returns the same
// *net.UDPAddr, which callers must treat as read-only. Its String() is
// the one ReadFromUDP's address would print.
//
//qvet:noalloc
func (r *udpRecv) source() *net.UDPAddr {
	var k addrKey
	switch r.rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&r.rsa))
		k.ap = netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), netPort(&sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&r.rsa))
		k.ap = netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), netPort(&sa.Port))
		k.scope = sa.Scope_id
	default:
		return nil
	}
	if a, ok := r.addrs[k]; ok {
		return a
	}
	return r.intern(k)
}

// intern adds a sender to the table, emptying the table first when it is
// full. This is the one allocation on the receive path, once per new
// sender, inside net.UDPAddrFromAddrPort. As in ReadFromUDP, an AF_INET
// sender gets a 4-byte IP and an AF_INET6 one a 16-byte IP and its zone.
func (r *udpRecv) intern(k addrKey) *net.UDPAddr {
	if len(r.addrs) >= addrTableCap {
		clear(r.addrs)
	}
	a := net.UDPAddrFromAddrPort(netip.AddrPortFrom(k.ap.Addr().WithZone(zoneName(k.scope)), k.ap.Port()))
	r.addrs[k] = a
	return a
}

// netPort reads a sockaddr port, which is stored in network byte order.
func netPort(p *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(p))
	return uint16(b[0])<<8 | uint16(b[1])
}

// zoneName names an IPv6 zone index the way the net package does: the
// interface name, or the decimal index when no interface has it.
func zoneName(scope uint32) string {
	if scope == 0 {
		return ""
	}
	if ifi, err := net.InterfaceByIndex(int(scope)); err == nil {
		return ifi.Name
	}
	return strconv.FormatUint(uint64(scope), 10)
}

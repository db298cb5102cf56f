//go:build linux && (amd64 || arm64)

// sendmmsg(2) has a per-architecture syscall number (batch_linux_*.go);
// the other Linux ports build batch_other.go and send one datagram at a
// time.

package transport

import (
	"net"
	"syscall"
	"unsafe"
)

// udpSend is UDPConn's send-side state for Batch: the raw socket and its
// address family, fixed at ListenUDP. Read-only afterwards, so any
// number of Batches may flush through one conn at once.
type udpSend struct {
	rc    syscall.RawConn
	inet6 bool // an AF_INET6 socket: IPv4 destinations go as v4-mapped addresses
}

func (s *udpSend) init(c *UDPConn) error {
	rc, err := c.pc.SyscallConn()
	if err != nil {
		return err
	}
	var sa syscall.Sockaddr
	cerr := rc.Control(func(fd uintptr) { sa, err = syscall.Getsockname(int(fd)) })
	if cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	_, s.inet6 = sa.(*syscall.SockaddrInet6)
	s.rc = rc
	return nil
}

// mmsghdr is the kernel's struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes sent, written by the kernel
	_   [4]byte
}

// batchSys is a Batch's sendmmsg state: one header, iovec and sockaddr
// per queued datagram, and the progress of the flush in hand, which the
// RawConn.Write callback reads and advances.
type batchSys struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6 // large enough for either family

	next, end int // the run being sent: headers [next, end)
	calls     int
	write     func(fd uintptr) bool // s.send, bound once so a flush allocates nothing
}

// flush sends b's datagrams through u, the socket under c, and returns
// the send calls made. Runs of destinations that convert to a sockaddr
// go out by sendmmsg; a destination that does not (not a *net.UDPAddr,
// an IPv6 zone, or IPv6 on an IPv4 socket) goes through c.Send between
// runs, so order holds.
func (s *batchSys) flush(b *Batch, u *UDPConn, c Conn) int {
	n := len(b.to)
	if len(s.hdrs) < n {
		// Growth is amortized: the arrays keep the high-water batch
		// size, and the callback is bound with the first of them.
		s.hdrs = make([]mmsghdr, n)
		s.iovs = make([]syscall.Iovec, n)
		s.names = make([]syscall.RawSockaddrInet6, n)
		s.write = s.send
	}
	s.calls = 0
	for i := 0; i < n; {
		j := i
		for j < n && s.fill(j, b, u.send.inet6) {
			j++
		}
		if j > i {
			s.next, s.end = i, j
			_ = u.send.rc.Write(s.write) // fails only once closed: the run is dropped, as Send's would be
		}
		if j < n {
			_ = c.Send(b.to[j], b.datagram(j))
			s.calls++
			j++
		}
		i = j
	}
	return s.calls
}

// fill sets up header i for datagram i of b and reports whether its
// destination converts to a sockaddr for this socket's family.
func (s *batchSys) fill(i int, b *Batch, inet6 bool) bool {
	ua, ok := b.to[i].(*net.UDPAddr)
	if !ok || ua.Zone != "" {
		return false
	}
	ip4 := ua.IP.To4()
	name := &s.names[i]
	*name = syscall.RawSockaddrInet6{}
	port := (*[2]byte)(unsafe.Pointer(&name.Port)) // the same offset in both families
	port[0], port[1] = byte(ua.Port>>8), byte(ua.Port)
	var nameLen uint32
	switch {
	case inet6 && ip4 != nil:
		name.Family = syscall.AF_INET6
		name.Addr[10], name.Addr[11] = 0xff, 0xff
		copy(name.Addr[12:], ip4)
		nameLen = syscall.SizeofSockaddrInet6
	case inet6 && len(ua.IP) == net.IPv6len:
		name.Family = syscall.AF_INET6
		copy(name.Addr[:], ua.IP)
		nameLen = syscall.SizeofSockaddrInet6
	case !inet6 && ip4 != nil:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
		sa4.Family = syscall.AF_INET
		copy(sa4.Addr[:], ip4)
		nameLen = syscall.SizeofSockaddrInet4
	default:
		return false
	}
	data := b.datagram(i)
	iov := &s.iovs[i]
	iov.Base = unsafe.SliceData(data)
	iov.SetLen(len(data))
	s.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
		Name:    (*byte)(unsafe.Pointer(name)),
		Namelen: nameLen,
		Iov:     iov,
		Iovlen:  1,
	}}
	return true
}

// send is the RawConn.Write callback: sendmmsg over headers [next, end)
// until every one has gone or been rejected. It reports false — wait
// until the socket is writable, then call again — only on EAGAIN.
func (s *batchSys) send(fd uintptr) bool {
	for s.next < s.end {
		r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.hdrs[s.next])), uintptr(s.end-s.next), 0, 0, 0)
		s.calls++
		switch {
		case errno == syscall.EINTR:
		case errno == syscall.EAGAIN:
			return false
		case errno != 0 || r == 0:
			// The kernel rejected the first datagram of the run (a
			// partial count leaves the failing one first in line for
			// the next call): drop it, as a failed Send is dropped.
			s.next++
		default:
			s.next += int(r)
		}
	}
	return true
}

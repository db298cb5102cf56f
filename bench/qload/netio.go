//go:build linux

package main

import (
	"fmt"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// The generator multiplexes every client socket of a shard through one
// epoll set and one timerfd, on raw non-blocking sockets: Go's netpoller
// would need a goroutine per socket to block in, and would stamp a
// datagram whenever the scheduler got round to the reader, not when the
// shard woke up.

// timerTag marks the shard's timerfd among the epoll events; client
// sockets carry their index in the shard.
const timerTag = -1

func epollCreate() (int, error) {
	ep, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return -1, fmt.Errorf("epoll_create1: %w", err)
	}
	return ep, nil
}

// epollAdd registers fd for readability; tag comes back in the event's
// Fd field (the kernel treats it as opaque user data).
func epollAdd(ep, fd int, tag int32) error {
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: tag}
	if err := syscall.EpollCtl(ep, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		return fmt.Errorf("epoll_ctl add: %w", err)
	}
	return nil
}

// epollWait blocks until an event or timeoutMs (-1: forever). The Go
// runtime preempts threads with signals, so EINTR is routine.
func epollWait(ep int, events []syscall.EpollEvent, timeoutMs int) (int, error) {
	for {
		n, err := syscall.EpollWait(ep, events, timeoutMs)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("epoll_wait: %w", err)
		}
		return n, nil
	}
}

type itimerspec struct {
	Interval syscall.Timespec
	Value    syscall.Timespec
}

// timerfdCreate opens a monotonic one-shot timer: epoll_wait's own
// timeout has millisecond grain, too coarse for a 4.1 ms burst schedule
// whose lateness is gated at 2 ms.
func timerfdCreate() (int, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return -1, fmt.Errorf("timerfd_create: %w", errno)
	}
	return int(fd), nil
}

// timerfdArm fires the timer once, d from now (at least 1 ns: a zero
// value would disarm it).
func timerfdArm(fd int, d time.Duration) error {
	if d < 1 {
		d = 1
	}
	its := itimerspec{Value: syscall.NsecToTimespec(int64(d))}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(fd), 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	return nil
}

// timerfdClear consumes the expiry count so the fd stops polling
// readable.
func timerfdClear(fd int) {
	var b [8]byte
	_, _ = syscall.Read(fd, b[:]) // EAGAIN when it has not fired: nothing to clear
}

// udpSocket opens an unconnected non-blocking UDP socket on an ephemeral
// loopback port. Unconnected, because a server thread other than the one
// the client sends to may answer after a migration.
func udpSocket() (int, error) {
	fd, err := syscall.Socket(syscall.AF_INET,
		syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, fmt.Errorf("socket: %w", err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("bind: %w", err)
	}
	return fd, nil
}

// parseInet4 turns "127.0.0.1:4711" into a sockaddr for sendto.
func parseInet4(s string) (syscall.SockaddrInet4, error) {
	ua, err := net.ResolveUDPAddr("udp4", s)
	if err != nil {
		return syscall.SockaddrInet4{}, fmt.Errorf("address %q: %w", s, err)
	}
	ip := ua.IP.To4()
	if ip == nil {
		return syscall.SockaddrInet4{}, fmt.Errorf("address %q: not IPv4", s)
	}
	sa := syscall.SockaddrInet4{Port: ua.Port}
	copy(sa.Addr[:], ip)
	return sa, nil
}

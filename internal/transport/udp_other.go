//go:build !unix || (linux && 386) || solaris || aix

package transport

import "time"

// udpRecv is empty here, and Recv reads under a deadline: a poll gets
// 100 µs of slack, because Go fails a read past its deadline untried.
type udpRecv struct{}

func (*udpRecv) init(*UDPConn) error { return nil }

func (c *UDPConn) Recv(buf []byte, timeout time.Duration) (int, Addr, error) {
	deadline := time.Time{}
	if timeout >= 0 {
		deadline = time.Now().Add(max(timeout, 100*time.Microsecond))
	}
	c.pc.SetReadDeadline(deadline) // fails only once closed, as the read then does
	return recvResult(c.pc.ReadFrom(buf))
}

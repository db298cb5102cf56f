//go:build unix && !(linux && 386) && !solaris && !aix

package transport

import (
	"fmt"
	"net/netip"
	"slices"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// TestUDPPollEmptyIsImmediate: a poll of an empty socket is one
// non-blocking recvfrom, not a wait for a deadline timer. The deadline
// read it replaces took about a millisecond per poll.
func TestUDPPollEmptyIsImmediate(t *testing.T) {
	c := listenUDP(t, "127.0.0.1:0")
	buf := make([]byte, MaxDatagram)
	took := make([]time.Duration, 200)
	for i := range took {
		t0 := time.Now()
		if _, _, err := c.Recv(buf, 0); err != ErrTimeout {
			t.Fatalf("poll of an empty socket: %v", err)
		}
		took[i] = time.Since(t0)
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med >= 100*time.Microsecond {
		t.Errorf("median empty poll took %v, want under 100µs", med)
	}
}

// setSockaddr fills r's sockaddr as recvfrom would for a sender at ap:
// AF_INET for a 4-byte address, AF_INET6 with scope otherwise.
func setSockaddr(r *udpRecv, ap netip.AddrPort, scope uint32) {
	r.rsa = syscall.RawSockaddrAny{}
	var port *uint16
	if ap.Addr().Is4() {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&r.rsa))
		sa.Family = syscall.AF_INET
		sa.Addr = ap.Addr().As4()
		port = &sa.Port
	} else {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&r.rsa))
		sa.Family = syscall.AF_INET6
		sa.Addr = ap.Addr().As16()
		sa.Scope_id = scope
		port = &sa.Port
	}
	b := (*[2]byte)(unsafe.Pointer(port))
	b[0], b[1] = byte(ap.Port()>>8), byte(ap.Port())
}

// TestUDPSourceTableBounded feeds the source conversion three times more
// distinct senders than the intern table holds. The table must never
// grow past its cap, and every sender must still come back as itself —
// including a recent one looked up again, and an IPv6 zone index no
// interface has, which prints as its number as in the net package.
func TestUDPSourceTableBounded(t *testing.T) {
	r := &listenUDP(t, "127.0.0.1:0").recv
	for i := 0; i < 3*addrTableCap; i++ {
		var ap netip.AddrPort
		var scope uint32
		var want string
		if i%4 == 3 {
			scope = uint32(1_000_000 + i)
			ap = netip.AddrPortFrom(netip.AddrFrom16([16]byte{0: 0xfe, 1: 0x80, 14: byte(i >> 8), 15: byte(i)}), uint16(i))
			want = fmt.Sprintf("[fe80::%x%%%d]:%d", i&0xffff, scope, uint16(i))
		} else {
			ap = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), uint16(1024+i))
			want = ap.String()
		}
		setSockaddr(r, ap, scope)
		got := r.source()
		if got == nil || got.String() != want {
			t.Fatalf("sender %d: source %v, want %s", i, got, want)
		}
		if n := len(r.addrs); n > addrTableCap {
			t.Fatalf("after %d senders the table holds %d, cap %d", i+1, n, addrTableCap)
		}
		if again := r.source(); again != got {
			t.Fatalf("sender %d looked up again: %p, first %p", i, again, got)
		}
	}
}

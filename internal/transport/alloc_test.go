package transport

import (
	"testing"
	"time"
)

// The allocation gates of the transport paths the reply sweep and the
// receive drain run on every frame (DESIGN.md §9): each test requires
// exactly 0 allocations per steady-state operation.

// requireAllocFree fails t unless op, run warm, allocates nothing.
func requireAllocFree(t *testing.T, what string, runs int, op func()) {
	t.Helper()
	op()
	if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
		t.Fatalf("%s allocates %.1f objects per operation, want 0", what, allocs)
	}
}

// TestUDPRecvAllocFree: a send and a poll from a sender the receiving
// conn has already seen (UDPConn.Recv, its recvfrom attempt and the
// interned source address).
func TestUDPRecvAllocFree(t *testing.T) {
	src, dst := listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")
	payload := make([]byte, 26) // a Move datagram
	buf := make([]byte, MaxDatagram)
	to := dst.LocalAddr()
	requireAllocFree(t, "UDP send and receive", 1000, func() {
		if err := src.Send(to, payload); err != nil {
			t.Fatal(err)
		}
		pollUntil(t, dst, buf)
	})
}

// TestUDPSendBatchAllocFree: a warm Add and Flush of 32 reply-sized
// datagrams through one UDP socket (sendmmsg where the platform has it).
func TestUDPSendBatchAllocFree(t *testing.T) {
	src, dst := listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")
	to := dst.LocalAddr()
	payload := make([]byte, 176)
	var batch Batch
	requireAllocFree(t, "batched UDP send", 1000, func() {
		for i := 0; i < 32; i++ {
			batch.Add(to, payload)
		}
		batch.Flush(src)
	})
}

// TestMuxPumpAllocFree: one datagram through a Mux — the pump
// goroutine's receive and routing, MuxPort.enqueue, and the port's
// receive — from a sender the endpoint under the mux has already seen.
// The "feed" arm isolates the mux over an endpoint that allocates
// nothing itself; the "udp" arm runs it over a loopback UDPConn, whose
// senders the mux must route without a String() per datagram.
func TestMuxPumpAllocFree(t *testing.T) {
	payload := make([]byte, 26)
	buf := make([]byte, MaxDatagram)
	t.Run("feed", func(t *testing.T) {
		under := &feedConn{nopConn: nopConn{addr: MemAddr("peer")}, in: make(chan []byte)}
		m := NewMux([]Conn{under})
		defer m.Close()
		defer close(under.in) // ends the pump, which Close then waits for
		port := m.Port(0)
		requireAllocFree(t, "mux pump", 1000, func() {
			under.in <- payload
			// Block without a timer: the pump runs while this goroutine
			// waits, so its allocations count too.
			if _, _, err := port.Recv(buf, -1); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("udp", func(t *testing.T) {
		src, under := listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")
		m := NewMux([]Conn{under})
		defer m.Close()
		port, to := m.Port(0), under.LocalAddr()
		requireAllocFree(t, "mux pump over UDP", 1000, func() {
			if err := src.Send(to, payload); err != nil {
				t.Fatal(err)
			}
			if _, _, err := port.Recv(buf, -1); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// feedConn is an endpoint whose datagrams the test hands over on a
// channel, all from one sender address boxed once. Its Recv ignores the
// timeout and blocks until a datagram arrives or in is closed.
type feedConn struct {
	nopConn
	in chan []byte
}

func (c *feedConn) Recv(buf []byte, _ time.Duration) (int, Addr, error) {
	d, ok := <-c.in
	if !ok {
		return 0, nil, ErrClosed
	}
	return copy(buf, d), c.addr, nil
}

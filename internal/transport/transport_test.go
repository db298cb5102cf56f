package transport

import (
	"net"
	"sync"
	"testing"
	"time"
)

func TestMemBasicDelivery(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	a, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.LocalAddr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	got, from, err := b.Recv(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:got]) != "hello" {
		t.Errorf("payload = %q", buf[:got])
	}
	if from.String() != "a" {
		t.Errorf("from = %v", from)
	}
}

func TestMemAutoAddressAllocation(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	c1, _ := n.Listen("")
	c2, _ := n.Listen("")
	if c1.LocalAddr().String() == c2.LocalAddr().String() {
		t.Error("auto-allocated addresses collide")
	}
	if _, err := n.Listen(c1.LocalAddr().String()); err == nil {
		t.Error("duplicate listen accepted")
	}
}

func TestMemTimeoutSemantics(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	c, _ := n.Listen("x")
	buf := make([]byte, 16)

	// Zero timeout: immediate poll.
	start := time.Now()
	_, _, err := c.Recv(buf, 0)
	if err != ErrTimeout {
		t.Errorf("poll err = %v", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("poll blocked")
	}

	// Short timeout expires.
	start = time.Now()
	_, _, err = c.Recv(buf, 30*time.Millisecond)
	if err != ErrTimeout {
		t.Errorf("timed recv err = %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("timeout returned early after %v", d)
	}
}

func TestMemBlockingRecvWakesOnSend(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, _, err := b.Recv(buf, -1)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Send(b.LocalAddr(), []byte("wake"))
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking recv never woke")
	}
}

func TestMemCloseUnblocksRecv(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	c, _ := n.Listen("c")
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, _, err := c.Recv(buf, -1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock recv")
	}
	// Double close is safe; sends after close fail.
	c.Close()
	if err := c.Send(MemAddr("c"), []byte("x")); err != ErrClosed {
		t.Errorf("send after close err = %v", err)
	}
}

func TestMemUnknownDestination(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	a, _ := n.Listen("a")
	if err := a.Send(MemAddr("ghost"), []byte("x")); err != ErrUnknownAddr {
		t.Errorf("err = %v", err)
	}
}

func TestMemLatency(t *testing.T) {
	n := NewNetwork(NetworkConfig{Latency: 50 * time.Millisecond})
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	start := time.Now()
	a.Send(b.LocalAddr(), []byte("slow"))
	buf := make([]byte, 16)
	_, _, err := b.Recv(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 45*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~50ms", d)
	}
}

func TestMemLoss(t *testing.T) {
	n := NewNetwork(NetworkConfig{LossProb: 1.0, Seed: 1})
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	for i := 0; i < 20; i++ {
		if err := a.Send(b.LocalAddr(), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 16)
	if _, _, err := b.Recv(buf, 20*time.Millisecond); err != ErrTimeout {
		t.Errorf("lossy recv err = %v", err)
	}
	sent, delivered, dropped := n.Stats()
	if sent != 20 || delivered != 0 || dropped != 20 {
		t.Errorf("stats = %d/%d/%d", sent, delivered, dropped)
	}
}

func TestMemQueueOverflow(t *testing.T) {
	n := NewNetwork(NetworkConfig{QueueLen: 4})
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	for i := 0; i < 10; i++ {
		a.Send(b.LocalAddr(), []byte{byte(i)})
	}
	if b.Pending() != 4 {
		t.Errorf("queue holds %d, want 4", b.Pending())
	}
	_, delivered, dropped := func() (int64, int64, int64) { return n.Stats() }()
	if delivered != 4 || dropped != 6 {
		t.Errorf("delivered=%d dropped=%d", delivered, dropped)
	}
}

func TestMemPayloadIsolation(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	payload := []byte("mutate me")
	a.Send(b.LocalAddr(), payload)
	payload[0] = 'X' // sender reuses its buffer
	buf := make([]byte, 64)
	got, _, _ := b.Recv(buf, time.Second)
	if string(buf[:got]) != "mutate me" {
		t.Errorf("payload aliased sender buffer: %q", buf[:got])
	}
}

func TestMemConcurrentSenders(t *testing.T) {
	n := NewNetwork(NetworkConfig{QueueLen: 4096})
	dst, _ := n.Listen("dst")
	const senders, per = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, _ := n.Listen("")
			for i := 0; i < per; i++ {
				c.Send(dst.LocalAddr(), []byte{byte(id)})
			}
		}(s)
	}
	wg.Wait()
	count := 0
	buf := make([]byte, 16)
	for {
		_, _, err := dst.Recv(buf, 0)
		if err != nil {
			break
		}
		count++
	}
	if count != senders*per {
		t.Errorf("received %d of %d", count, senders*per)
	}
}

func TestUDPLoopback(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(b.LocalAddr(), []byte("over udp")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, from, err := b.Recv(buf, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "over udp" {
		t.Errorf("payload = %q", buf[:n])
	}
	if from.String() != a.LocalAddr().String() {
		t.Errorf("from = %v, want %v", from, a.LocalAddr())
	}

	// Timeout semantics.
	if _, _, err := b.Recv(buf, 20*time.Millisecond); err != ErrTimeout {
		t.Errorf("udp timeout err = %v", err)
	}

	// Close unblocks.
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Recv(buf, -1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("closed udp recv err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("udp close did not unblock recv")
	}
}

// listenUDP opens a UDP endpoint closed at the end of the test, skipping
// the test where the address family has no loopback.
func listenUDP(tb testing.TB, addr string) *UDPConn {
	tb.Helper()
	c, err := ListenUDP(addr)
	if err != nil {
		tb.Skipf("no UDP loopback at %s: %v", addr, err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// pollUntil polls c until a datagram arrives, failing after a second.
// Loopback delivery is all but synchronous; the loop only keeps a slow
// host from flaking the test.
func pollUntil(tb testing.TB, c Conn, buf []byte) (int, Addr) {
	tb.Helper()
	give := time.Now().Add(time.Second)
	for {
		n, from, err := c.Recv(buf, 0)
		if err == nil {
			return n, from
		}
		if err != ErrTimeout {
			tb.Fatalf("poll: %v", err)
		}
		if time.Now().After(give) {
			tb.Fatal("poll never delivered the queued datagram")
		}
	}
}

// TestUDPPollAfterTimedOutRecv is the expired-deadline trap: a timed Recv
// that times out leaves a read deadline in the past, and Go's poller
// fails any read past its deadline without trying the socket. A poll
// after it must still deliver what arrives.
func TestUDPPollAfterTimedOutRecv(t *testing.T) {
	a, b := listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")
	buf := make([]byte, 64)
	if _, _, err := b.Recv(buf, 5*time.Millisecond); err != ErrTimeout {
		t.Fatalf("timed recv on an empty socket: %v", err)
	}
	if err := a.Send(b.LocalAddr(), []byte("late")); err != nil {
		t.Fatal(err)
	}
	if n, _ := pollUntil(t, b, buf); string(buf[:n]) != "late" {
		t.Errorf("payload = %q", buf[:n])
	}
	// A blocking Recv after another timeout must not inherit it either.
	if _, _, err := b.Recv(buf, 5*time.Millisecond); err != ErrTimeout {
		t.Fatalf("timed recv on an empty socket: %v", err)
	}
	if err := a.Send(b.LocalAddr(), []byte("again")); err != nil {
		t.Fatal(err)
	}
	if n, _, err := b.Recv(buf, -1); err != nil || string(buf[:n]) != "again" {
		t.Errorf("blocking recv = %q, %v", buf[:n], err)
	}
}

func TestUDPPollClosed(t *testing.T) {
	buf := make([]byte, 64)
	c := listenUDP(t, "127.0.0.1:0")
	c.Close()
	if _, _, err := c.Recv(buf, 0); err != ErrClosed {
		t.Errorf("poll of a closed conn: %v, want ErrClosed", err)
	}
	// Closed after a timed Recv left a deadline for the poll to clear.
	c = listenUDP(t, "127.0.0.1:0")
	if _, _, err := c.Recv(buf, time.Millisecond); err != ErrTimeout {
		t.Fatalf("timed recv on an empty socket: %v", err)
	}
	c.Close()
	if _, _, err := c.Recv(buf, 0); err != ErrClosed {
		t.Errorf("poll of a closed conn after a timed recv: %v, want ErrClosed", err)
	}
}

// TestUDPSourceMatchesReadFromUDP pins the source a Recv reports to the
// address the net package's own ReadFromUDP reports for the same sender:
// same String(), same IP length. The dual-stack case receives an IPv4
// sender on an IPv6 socket, as a v4-mapped address.
func TestUDPSourceMatchesReadFromUDP(t *testing.T) {
	for _, tc := range []struct{ name, listen, sendFrom, sendHost string }{
		{"ipv4", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1"},
		{"ipv6", "[::1]:0", "[::1]:0", "::1"},
		{"dual-stack", "[::]:0", "127.0.0.1:0", "127.0.0.1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := listenUDP(t, tc.sendFrom)
			ours := listenUDP(t, tc.listen)
			la, err := net.ResolveUDPAddr("udp", tc.listen)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := net.ListenUDP("udp", la)
			if err != nil {
				t.Skipf("no reference socket at %s: %v", tc.listen, err)
			}
			defer ref.Close()
			dest := func(a Addr) Addr {
				return &net.UDPAddr{IP: net.ParseIP(tc.sendHost), Port: a.(*net.UDPAddr).Port}
			}
			buf := make([]byte, 64)
			for i := 0; i < 2; i++ {
				if err := src.Send(dest(ours.LocalAddr()), []byte("x")); err != nil {
					t.Fatal(err)
				}
				if err := src.Send(dest(ref.LocalAddr()), []byte("x")); err != nil {
					t.Fatal(err)
				}
				_, from, err := ours.Recv(buf, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				ref.SetReadDeadline(time.Now().Add(time.Second))
				_, want, err := ref.ReadFromUDP(buf)
				if err != nil {
					t.Fatal(err)
				}
				got := from.(*net.UDPAddr)
				if got.String() != want.String() || got.Network() != want.Network() || len(got.IP) != len(want.IP) {
					t.Errorf("source %s (%d-byte IP), ReadFromUDP says %s (%d-byte IP)", got, len(got.IP), want, len(want.IP))
				}
			}
		})
	}
}

// TestUDPConcurrentSendDuringRecv runs Sends on a conn while its one
// reader receives; under -race it proves the receive state is the
// reader's alone.
func TestUDPConcurrentSendDuringRecv(t *testing.T) {
	a, b := listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")
	const n = 100 // fits the default receive buffer even if b reads none until the end
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			b.Send(a.LocalAddr(), []byte{byte(i)})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			a.Send(b.LocalAddr(), []byte{byte(i)})
		}
	}()
	buf := make([]byte, 16)
	got := 0
	for got < n {
		timeout := time.Duration(0)
		if got%2 == 1 {
			timeout = time.Second // alternate polls and timed receives
		}
		_, from, err := b.Recv(buf, timeout)
		if err == ErrTimeout && timeout == 0 {
			continue
		}
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", got, n, err)
		}
		if from.String() != a.LocalAddr().String() {
			t.Fatalf("source %s, want %s", from, a.LocalAddr())
		}
		got++
	}
	wg.Wait()
}

func BenchmarkMemSendRecv(b *testing.B) {
	n := NewNetwork(NetworkConfig{QueueLen: 8})
	src, _ := n.Listen("src")
	dst, _ := n.Listen("dst")
	payload := make([]byte, 64)
	buf := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(dst.LocalAddr(), payload)
		dst.Recv(buf, 0)
	}
}

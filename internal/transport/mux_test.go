package transport

import (
	"net"
	"testing"
	"time"
)

func newMuxRig(t *testing.T, n int) (*Network, []*MemConn, *Mux) {
	t.Helper()
	net := NewNetwork(NetworkConfig{})
	conns := make([]*MemConn, n)
	iconns := make([]Conn, n)
	for i := range conns {
		c, err := net.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		iconns[i] = c
	}
	mux := NewMux(iconns)
	t.Cleanup(mux.Close)
	return net, conns, mux
}

func recvFrom(t *testing.T, p *MuxPort) (string, string) {
	t.Helper()
	buf := make([]byte, MaxDatagram)
	n, from, err := p.Recv(buf, time.Second)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return string(buf[:n]), from.String()
}

func TestMuxDefaultRoutingFollowsArrivalEndpoint(t *testing.T) {
	net, conns, mux := newMuxRig(t, 2)
	cl, err := net.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(conns[1].LocalAddr(), []byte("hi")); err != nil {
		t.Fatal(err)
	}
	data, from := recvFrom(t, mux.Port(1))
	if data != "hi" || from != "client" {
		t.Fatalf("port 1 got (%q, %q), want (hi, client)", data, from)
	}
	if n := mux.Port(0).Pending(); n != 0 {
		t.Fatalf("port 0 has %d stray datagrams", n)
	}
}

func TestMuxRouteRedirectsAndUnrouteRestores(t *testing.T) {
	net, conns, mux := newMuxRig(t, 2)
	cl, err := net.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	mux.Route(MemAddr("client"), 0)
	// Client still sends to endpoint 1 — the route must win.
	if err := cl.Send(conns[1].LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(0)); data != "a" {
		t.Fatalf("routed datagram = %q, want a", data)
	}
	mux.Unroute(MemAddr("client"))
	if err := cl.Send(conns[1].LocalAddr(), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(1)); data != "b" {
		t.Fatalf("unrouted datagram = %q, want b on arrival port", data)
	}
}

func TestMuxForwardPreservesSource(t *testing.T) {
	_, _, mux := newMuxRig(t, 2)
	payload := []byte("move")
	mux.Forward(1, payload, MemAddr("client"))
	payload[0] = 'X' // caller may reuse the buffer immediately
	data, from := recvFrom(t, mux.Port(1))
	if data != "move" || from != "client" {
		t.Fatalf("forwarded datagram = (%q, %q), want (move, client)", data, from)
	}
}

func TestMuxSendUsesOwnEndpoint(t *testing.T) {
	net, conns, mux := newMuxRig(t, 2)
	cl, err := net.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	if err := mux.Port(1).Send(MemAddr("client"), []byte("snap")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxDatagram)
	n, from, err := cl.Recv(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "snap" || from.String() != conns[1].LocalAddr().String() {
		t.Fatalf("client got (%q, %q), want (snap, %q)", buf[:n], from, conns[1].LocalAddr())
	}
}

func TestMuxCloseUnblocksRecvAndKeepsConnsOpen(t *testing.T) {
	net, conns, mux := newMuxRig(t, 1)
	done := make(chan error, 1)
	go func() {
		_, _, err := mux.Port(0).Recv(make([]byte, MaxDatagram), -1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	mux.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Recv after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	// Underlying conn still usable.
	cl, err := net.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Send(conns[0].LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxDatagram)
	if _, _, err := conns[0].Recv(buf, time.Second); err != nil {
		t.Fatalf("underlying conn closed by mux: %v", err)
	}
}

// TestResolveLikeThroughMuxPort: a MuxPort resolves addresses like the
// endpoint under the mux.
func TestResolveLikeThroughMuxPort(t *testing.T) {
	_, _, mux := newMuxRig(t, 1)
	addr, err := mux.Port(0).Resolve("somewhere")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := addr.(MemAddr); !ok {
		t.Fatalf("resolved %T, want MemAddr", addr)
	}
}

// TestMuxOverUDPRepliesWithoutResolving: the source a MuxPort reports —
// pumped or forwarded — is the *net.UDPAddr the socket produced, so the
// reply to it goes straight to WriteToUDP. A source rebuilt from its
// string form made UDPConn.Send pay net.ResolveUDPAddr (5 allocations)
// on every reply of a parallel or match-hosting server.
func TestMuxOverUDPRepliesWithoutResolving(t *testing.T) {
	srv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mux := NewMux([]Conn{srv})
	defer mux.Close()
	port := mux.Port(0)

	if err := cl.Send(srv.LocalAddr(), []byte("move")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxDatagram)
	_, from, err := port.Recv(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mux.Forward(0, []byte("move"), from)
	_, forwarded, err := port.Recv(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Addr{from, forwarded} {
		if _, ok := a.(*net.UDPAddr); !ok || a.String() != cl.LocalAddr().String() {
			t.Fatalf("source = %T %v, want the client's *net.UDPAddr %v", a, a, cl.LocalAddr())
		}
	}

	direct := testing.AllocsPerRun(100, func() { _ = srv.Send(cl.LocalAddr(), buf[:8]) })
	viaPort := testing.AllocsPerRun(100, func() { _ = port.Send(from, buf[:8]) })
	if viaPort > direct {
		t.Errorf("MuxPort.Send to a received source allocates %.0f objects, the bare socket %.0f", viaPort, direct)
	}
}

// TestMuxRoutesUDPSenderByAddress: a route names a UDP sender by its
// address and port, whichever form of IPv4 address the caller holds. A
// route set through the 16-byte form steers the datagrams the socket
// reports from the 4-byte form, and Unroute through the 4-byte form
// clears it, as when the table was keyed by String().
func TestMuxRoutesUDPSenderByAddress(t *testing.T) {
	srv := []Conn{listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")}
	cl := listenUDP(t, "127.0.0.1:0")
	mux := NewMux(srv)
	defer mux.Close()
	me := cl.LocalAddr().(*net.UDPAddr)
	mapped := &net.UDPAddr{IP: me.IP.To16(), Port: me.Port}

	mux.Route(mapped, 0)
	if err := cl.Send(srv[1].LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(0)); data != "a" {
		t.Fatalf("routed datagram = %q, want a on port 0", data)
	}
	mux.Unroute(&net.UDPAddr{IP: me.IP.To4(), Port: me.Port})
	if err := cl.Send(srv[1].LocalAddr(), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(1)); data != "b" {
		t.Fatalf("unrouted datagram = %q, want b on arrival port 1", data)
	}
}

// TestMuxUnrouteByAddressStringClearsUDPRoute: the server forgets a
// client by the MemAddr of its cached address string, while the route
// and the drop count were keyed from the *net.UDPAddr the socket
// reported. Unroute must clear both, or a dead client's route outlives
// it and steers the next sender at that ip:port to its thread.
func TestMuxUnrouteByAddressStringClearsUDPRoute(t *testing.T) {
	srv := []Conn{listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")}
	cl := listenUDP(t, "127.0.0.1:0")
	mux := NewMux(srv)
	defer mux.Close()
	me := cl.LocalAddr().(*net.UDPAddr)

	mux.Route(me, 0)
	if err := cl.Send(srv[1].LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(0)); data != "a" {
		t.Fatalf("routed datagram = %q, want a on port 0", data)
	}
	// Overflow port 0's queue so the sender has a drop count to forget.
	for range muxQueueLen + 1 {
		mux.Forward(0, []byte("x"), me)
	}
	mux.mu.Lock()
	drops := mux.dropsBySrc[keyOf(me)]
	mux.mu.Unlock()
	if drops != 1 {
		t.Fatalf("drop count for %v = %d, want 1", me, drops)
	}

	mux.Unroute(MemAddr(me.String()))
	mux.mu.Lock()
	routes, srcs := len(mux.route), len(mux.dropsBySrc)
	mux.mu.Unlock()
	if routes != 0 || srcs != 0 {
		t.Fatalf("after Unroute: %d routes, %d drop counts left, want none", routes, srcs)
	}
	if err := cl.Send(srv[1].LocalAddr(), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(1)); data != "b" {
		t.Fatalf("unrouted datagram = %q, want b on arrival port 1", data)
	}
}

// TestMuxAddressStringRouteSteersUDPSender: a crash-recovered server
// routes each parked survivor up front by the MemAddr of its
// checkpointed address string; the survivor's UDP datagrams must follow
// that route before it has resumed.
func TestMuxAddressStringRouteSteersUDPSender(t *testing.T) {
	srv := []Conn{listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")}
	cl := listenUDP(t, "127.0.0.1:0")
	mux := NewMux(srv)
	defer mux.Close()

	mux.Route(MemAddr(cl.LocalAddr().String()), 0)
	if err := cl.Send(srv[1].LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(0)); data != "a" {
		t.Fatalf("datagram = %q, want a on the routed port 0", data)
	}
}

// TestRouteKeyForms: every form of one ip:port sender shares a key;
// in-memory names key by their string.
func TestRouteKeyForms(t *testing.T) {
	v4 := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1).To4(), Port: 5}
	want := keyOf(v4)
	for _, a := range []Addr{
		&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 5}, // 16-byte form
		MemAddr("127.0.0.1:5"),
		MemAddr("[::ffff:127.0.0.1]:5"),
	} {
		if got := keyOf(a); got != want {
			t.Errorf("keyOf(%T %v) = %+v, want %+v", a, a, got, want)
		}
	}
	v6 := &net.UDPAddr{IP: net.IPv6loopback, Port: 5}
	if keyOf(v6) != keyOf(MemAddr("[::1]:5")) || keyOf(v6) == want {
		t.Errorf("IPv6 sender keys %+v, its string %+v", keyOf(v6), keyOf(MemAddr("[::1]:5")))
	}
	for _, name := range []string{"mem:3", "peer", "127.0.0.1", "1.2.3.4:99999"} {
		if got := keyOf(MemAddr(name)); got != (routeKey{str: name}) {
			t.Errorf("keyOf(MemAddr(%q)) = %+v, want the string key", name, got)
		}
	}
}

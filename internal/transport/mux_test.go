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
	client := KeyOf(MemAddr("client"))
	mux.Port(0).Route(client)
	// Client still sends to endpoint 1 — the route must win.
	if err := cl.Send(conns[1].LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(0)); data != "a" {
		t.Fatalf("routed datagram = %q, want a", data)
	}
	mux.Port(0).Unroute(client)
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
	mux.Port(1).Forward(payload, MemAddr("client"))
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
	port.Forward([]byte("move"), from)
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
// route set through the key of the 16-byte form steers the datagrams the
// socket reports from the 4-byte form, and Unroute through the key of
// the 4-byte form clears it.
func TestMuxRoutesUDPSenderByAddress(t *testing.T) {
	srv := []Conn{listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")}
	cl := listenUDP(t, "127.0.0.1:0")
	mux := NewMux(srv)
	defer mux.Close()
	me := cl.LocalAddr().(*net.UDPAddr)
	mapped := &net.UDPAddr{IP: me.IP.To16(), Port: me.Port}

	mux.Port(0).Route(KeyOf(mapped))
	if err := cl.Send(srv[1].LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(0)); data != "a" {
		t.Fatalf("routed datagram = %q, want a on port 0", data)
	}
	mux.Port(0).Unroute(KeyOf(&net.UDPAddr{IP: me.IP.To4(), Port: me.Port}))
	if err := cl.Send(srv[1].LocalAddr(), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(1)); data != "b" {
		t.Fatalf("unrouted datagram = %q, want b on arrival port 1", data)
	}
}

// TestMuxPortUnrouteClearsOwnRouteOnly: a port's Unroute forgets a UDP
// sender it routes — route and drop count, so neither outlives the
// client — but leaves a route another port has taken over since: a
// late removal behind the old port must not cut off a sender that has
// moved on.
func TestMuxPortUnrouteClearsOwnRouteOnly(t *testing.T) {
	srv := []Conn{listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")}
	cl := listenUDP(t, "127.0.0.1:0")
	mux := NewMux(srv)
	defer mux.Close()
	me := KeyOf(cl.LocalAddr())

	mux.Port(0).Route(me)
	if err := cl.Send(srv[1].LocalAddr(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(0)); data != "a" {
		t.Fatalf("routed datagram = %q, want a on port 0", data)
	}
	// Overflow port 0's queue so the sender has a drop count to forget.
	for range muxQueueLen + 1 {
		mux.Port(0).Forward([]byte("x"), cl.LocalAddr())
	}
	if _, drops := mux.Tracked(); drops != 1 {
		t.Fatalf("%d senders with drops, want 1", drops)
	}

	mux.Port(1).Unroute(me) // not port 1's route
	if routes, drops := mux.Tracked(); routes != 1 || drops != 1 {
		t.Fatalf("after another port's Unroute: %d routes, %d drop counts, want 1 and 1", routes, drops)
	}
	mux.Port(0).Unroute(me)
	if routes, drops := mux.Tracked(); routes != 0 || drops != 0 {
		t.Fatalf("after Unroute: %d routes, %d drop counts left, want none", routes, drops)
	}
	for mux.Port(0).Pending() > 0 {
		recvFrom(t, mux.Port(0))
	}
	if err := cl.Send(srv[1].LocalAddr(), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if data, _ := recvFrom(t, mux.Port(1)); data != "b" {
		t.Fatalf("unrouted datagram = %q, want b on arrival port 1", data)
	}
}

// TestRouteKeyForms: a sender's Key is the Key of its text, so a
// checkpointed address names the sender that calls again from it; every
// form of one sender shares a key; and in-memory names key by their
// string.
func TestRouteKeyForms(t *testing.T) {
	v4 := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1).To4(), Port: 5}
	mapped := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 5} // 16-byte form
	zoned := &net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 7, Zone: "eth0"}
	for _, a := range []Addr{v4, mapped, zoned, &net.UDPAddr{IP: net.IPv6loopback, Port: 5},
		MemAddr("mem:3"), MemAddr("peer"), MemAddr("127.0.0.1"), MemAddr("1.2.3.4:99999")} {
		k := KeyOf(a)
		if got := ParseKey(a.String()); got != k {
			t.Errorf("%T %v: ParseKey(String()) = %+v, KeyOf = %+v", a, a, got, k)
		}
		if text := string(k.AppendTo(nil)); text != a.String() {
			t.Errorf("%T %v: key text %q, want the address's String()", a, a, text)
		}
	}
	if KeyOf(mapped) != KeyOf(v4) || ParseKey("[::ffff:127.0.0.1]:5") != KeyOf(v4) {
		t.Error("the 4- and 16-byte forms of one IPv4 sender key differently")
	}
	if KeyOf(&net.UDPAddr{IP: net.IPv6loopback, Port: 5}) == KeyOf(v4) {
		t.Error("[::1]:5 and 127.0.0.1:5 share a key")
	}
	if name := KeyOf(MemAddr("mem:3")); name != (Key{name: "mem:3"}) {
		t.Errorf("KeyOf(MemAddr(mem:3)) = %+v, want the name key", name)
	}
}

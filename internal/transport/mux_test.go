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

func TestResolveLikeThroughMuxPort(t *testing.T) {
	_, _, mux := newMuxRig(t, 1)
	addr, err := ResolveLike(mux.Port(0), "somewhere")
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

package transport

import (
	"bytes"
	"testing"
	"time"
)

func faultPair(t *testing.T, cfg FaultConfig) (*FaultConn, *MemConn) {
	t.Helper()
	net := NewNetwork(NetworkConfig{})
	sender, err := net.Listen("sender")
	if err != nil {
		t.Fatal(err)
	}
	receiver, err := net.Listen("receiver")
	if err != nil {
		t.Fatal(err)
	}
	return NewFaultConn(sender, cfg), receiver
}

func recvAll(t *testing.T, c Conn, wait time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	deadline := time.Now().Add(wait)
	buf := make([]byte, MaxDatagram)
	for {
		n, _, err := c.Recv(buf, time.Until(deadline))
		if err != nil {
			return out
		}
		out = append(out, append([]byte(nil), buf[:n]...))
	}
}

func TestFaultConnPassthrough(t *testing.T) {
	fc, rx := faultPair(t, FaultConfig{})
	msg := []byte("hello")
	if err := fc.Send(rx.LocalAddr(), msg); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, rx, 50*time.Millisecond)
	if len(got) != 1 || !bytes.Equal(got[0], msg) {
		t.Fatalf("passthrough got %q", got)
	}
}

func TestFaultConnDrop(t *testing.T) {
	fc, rx := faultPair(t, FaultConfig{Seed: 1, DropProb: 1})
	for i := 0; i < 10; i++ {
		if err := fc.Send(rx.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvAll(t, rx, 20*time.Millisecond); len(got) != 0 {
		t.Fatalf("expected all dropped, got %d", len(got))
	}
	if st := fc.Stats(); st.Dropped != 10 {
		t.Fatalf("dropped counter = %d, want 10", st.Dropped)
	}
}

func TestFaultConnDuplicate(t *testing.T) {
	fc, rx := faultPair(t, FaultConfig{Seed: 1, DupProb: 1})
	if err := fc.Send(rx.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, rx, 50*time.Millisecond); len(got) != 2 {
		t.Fatalf("expected duplicate delivery, got %d datagrams", len(got))
	}
}

func TestFaultConnReorder(t *testing.T) {
	fc, rx := faultPair(t, FaultConfig{Seed: 1, ReorderProb: 1})
	// Every datagram is held back and released by the next send, so a
	// stream a,b,c,d arrives b,a,d,c.
	for _, b := range []byte{'a', 'b', 'c', 'd'} {
		if err := fc.Send(rx.LocalAddr(), []byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	got := recvAll(t, rx, 50*time.Millisecond)
	if len(got) != 4 {
		t.Fatalf("got %d datagrams, want 4", len(got))
	}
	seq := []byte{got[0][0], got[1][0], got[2][0], got[3][0]}
	if !bytes.Equal(seq, []byte("badc")) {
		t.Fatalf("reorder sequence = %q, want badc", seq)
	}
}

func TestFaultConnCorruptAndTruncate(t *testing.T) {
	orig := bytes.Repeat([]byte{0xAA}, 64)

	fc, rx := faultPair(t, FaultConfig{Seed: 3, CorruptProb: 1})
	if err := fc.Send(rx.LocalAddr(), orig); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, rx, 50*time.Millisecond)
	if len(got) != 1 || bytes.Equal(got[0], orig) {
		t.Fatalf("corruption did not change payload")
	}
	diff := 0
	for i := range orig {
		if got[0][i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bytes, want 1 (single bit flip)", diff)
	}
	if !bytes.Equal(orig, bytes.Repeat([]byte{0xAA}, 64)) {
		t.Fatal("corruption mutated the caller's buffer")
	}

	ft, rx2 := faultPair(t, FaultConfig{Seed: 3, TruncateProb: 1})
	if err := ft.Send(rx2.LocalAddr(), orig); err != nil {
		t.Fatal(err)
	}
	got = recvAll(t, rx2, 50*time.Millisecond)
	if len(got) != 1 || len(got[0]) >= len(orig) || len(got[0]) < 1 {
		t.Fatalf("truncation produced %d bytes from %d", len(got[0]), len(orig))
	}
}

func TestFaultConnDelay(t *testing.T) {
	fc, rx := faultPair(t, FaultConfig{Seed: 1, DelayProb: 1, Delay: 30 * time.Millisecond})
	t0 := time.Now()
	if err := fc.Send(rx.LocalAddr(), []byte("late")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxDatagram)
	n, _, err := rx.Recv(buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < 25*time.Millisecond {
		t.Fatalf("delayed datagram arrived after %v, want >= ~30ms", el)
	}
	if string(buf[:n]) != "late" {
		t.Fatalf("payload %q", buf[:n])
	}
}

func TestFaultConnRecvSideDrop(t *testing.T) {
	net := NewNetwork(NetworkConfig{})
	tx, _ := net.Listen("tx")
	inner, _ := net.Listen("rx")
	frx := NewFaultConn(inner, FaultConfig{Seed: 9, DropProb: 1})
	for i := 0; i < 5; i++ {
		if err := tx.Send(inner.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, MaxDatagram)
	if _, _, err := frx.Recv(buf, 20*time.Millisecond); err != ErrTimeout {
		t.Fatalf("recv-side drop: err = %v, want ErrTimeout", err)
	}
	if st := frx.Stats(); st.Dropped == 0 {
		t.Fatal("recv-side drops not counted")
	}
}

func TestFaultConnSetConfigRuntime(t *testing.T) {
	fc, rx := faultPair(t, FaultConfig{Seed: 1, DropProb: 1})
	_ = fc.Send(rx.LocalAddr(), []byte("lost"))
	fc.SetConfig(FaultConfig{}) // chaos off
	if err := fc.Send(rx.LocalAddr(), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, rx, 50*time.Millisecond)
	if len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("after SetConfig got %q", got)
	}
}

func TestFaultConnDeterministic(t *testing.T) {
	run := func() FaultStats {
		fc, rx := faultPair(t, FaultConfig{
			Seed: 42, DropProb: 0.3, DupProb: 0.2, CorruptProb: 0.2, TruncateProb: 0.1,
		})
		payload := bytes.Repeat([]byte{0x5A}, 32)
		for i := 0; i < 200; i++ {
			_ = fc.Send(rx.LocalAddr(), payload)
		}
		return fc.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault stream not deterministic: %+v vs %+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 || a.Corrupted == 0 || a.Truncated == 0 {
		t.Fatalf("expected every fault class to fire: %+v", a)
	}
}

func TestFaultNetworkWrapsEveryEndpoint(t *testing.T) {
	fn := NewFaultNetwork(NewNetwork(NetworkConfig{}), FaultConfig{Seed: 7, DropProb: 1})
	a, err := fn.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fn.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	_ = a.Send(b.LocalAddr(), []byte("x"))
	if st := fn.Stats(); st.Dropped != 1 {
		t.Fatalf("aggregate drops = %d, want 1", st.Dropped)
	}
	fn.SetConfig(FaultConfig{Seed: 7})
	if err := a.Send(b.LocalAddr(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _, err := b.Recv(buf, 50*time.Millisecond); err != nil || string(buf[:n]) != "y" {
		t.Fatalf("after SetConfig: n=%d err=%v", n, err)
	}
}

// TestFaultConnResolveLike: a FaultConn resolves addresses like the conn it
// wraps.
func TestFaultConnResolveLike(t *testing.T) {
	fc, _ := faultPair(t, FaultConfig{})
	addr, err := fc.Resolve("somewhere")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := addr.(MemAddr); !ok {
		t.Fatalf("Resolve through FaultConn returned %T", addr)
	}
}

// TestFaultConnFastPathAllocFree pins the tentpole guarantee: with all
// rates zero the injector's send and receive allocate nothing, so
// wrapping a conn in tests and benches cannot perturb the reply
// pipeline's allocation gates. The inner conn is a nopConn, which
// allocates nothing itself, so the count is exactly the injector's.
func TestFaultConnFastPathAllocFree(t *testing.T) {
	fc := NewFaultConn(&nopConn{addr: MemAddr("nop")}, FaultConfig{})
	var to Addr = MemAddr("peer") // box once: the interface conversion is the caller's cost
	data := make([]byte, 64)
	buf := make([]byte, MaxDatagram)
	requireAllocFree(t, "fault-free FaultConn round trip", 1000, func() {
		if err := fc.Send(to, data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fc.Recv(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMuxOverflowCounted(t *testing.T) {
	net := NewNetwork(NetworkConfig{})
	under, _ := net.Listen("under")
	m := NewMux([]Conn{under})
	defer m.Close()
	port := m.Port(0)
	// Fill the port queue past capacity via Forward (synchronous, no pump
	// race): muxQueueLen fits, the rest must drop and be counted.
	src := MemAddr("flood")
	payload := []byte("p")
	for i := 0; i < muxQueueLen+10; i++ {
		port.Forward(payload, src)
	}
	if got := m.Drops(); got != 10 {
		t.Fatalf("mux drops = %d, want 10", got)
	}
	if port.Pending() != muxQueueLen {
		t.Fatalf("pending = %d, want %d", port.Pending(), muxQueueLen)
	}
}

// nopConn is an inner Conn that does nothing and allocates nothing, so
// a wrapper's allocation test counts the wrapper alone.
type nopConn struct{ addr Addr }

func (n *nopConn) Send(to Addr, data []byte) error                           { return nil }
func (n *nopConn) Recv(buf []byte, timeout time.Duration) (int, Addr, error) { return 0, n.addr, nil }
func (n *nopConn) LocalAddr() Addr                                           { return n.addr }
func (n *nopConn) Resolve(s string) (Addr, error)                            { return MemAddr(s), nil }
func (n *nopConn) Close() error                                              { return nil }

package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sendmmsgBuild reports whether Flush on a UDPConn uses sendmmsg here.
func sendmmsgBuild() bool {
	return runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
}

// batchPayload is datagram seq of sender g: a header naming both, then
// a filler that depends on them, at a length that varies with seq.
func batchPayload(g, seq int) []byte {
	p := make([]byte, 8+(seq*37)%300)
	binary.BigEndian.PutUint32(p, uint32(g))
	binary.BigEndian.PutUint32(p[4:], uint32(seq))
	for i := 8; i < len(p); i++ {
		p[i] = byte(g*31 + seq + i)
	}
	return p
}

// receive reads want datagrams from c, giving up after two seconds of
// silence.
func receive(c Conn, want int) ([][]byte, error) {
	var got [][]byte
	buf := make([]byte, MaxDatagram)
	for len(got) < want {
		n, _, err := c.Recv(buf, 2*time.Second)
		if err != nil {
			return got, fmt.Errorf("received %d of %d datagrams: %w", len(got), want, err)
		}
		got = append(got, append([]byte(nil), buf[:n]...))
	}
	return got, nil
}

// drain is receive for the test goroutine.
func drain(t *testing.T, c Conn, want int) [][]byte {
	t.Helper()
	got, err := receive(c, want)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestBatchSharedConnConcurrentFlush is the match lobby's case: several
// goroutines, each with its own Batch, flush through one shared
// UDPConn at once. Each batch alternates between its goroutine's two
// receivers, and every datagram must arrive exactly once, intact, at
// its own destination. Under -race it is also the proof that Batches
// share no state through the conn.
func TestBatchSharedConnConcurrentFlush(t *testing.T) {
	const senders, rounds, perBatch = 4, 8, 32
	shared := listenUDP(t, "127.0.0.1:0")
	recv := make([]*UDPConn, 2*senders)
	for i := range recv {
		recv[i] = listenUDP(t, "127.0.0.1:0")
	}
	var wg sync.WaitGroup
	calls := make([]int, senders)
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var b Batch
			mine := recv[2*g : 2*g+2]
			for r := 0; r < rounds; r++ {
				for i := 0; i < perBatch; i++ {
					seq := r*perBatch + i
					b.Add(mine[seq%2].LocalAddr(), batchPayload(g, seq))
				}
				calls[g] += b.Flush(shared)
				if b.Len() != 0 {
					errs <- fmt.Errorf("sender %d: %d datagrams left after Flush", g, b.Len())
					return
				}
				// Wait for the round to land before the next, so loopback
				// receive buffers never overflow.
				for k, rc := range mine {
					got, err := receive(rc, perBatch/2)
					if err != nil {
						errs <- fmt.Errorf("sender %d, receiver %d, round %d: %w", g, k, r, err)
						return
					}
					for _, d := range got {
						sg, seq := int(binary.BigEndian.Uint32(d)), int(binary.BigEndian.Uint32(d[4:]))
						switch {
						case sg != g || seq%2 != k || seq/perBatch != r:
							errs <- fmt.Errorf("receiver %d of sender %d got datagram %d of sender %d in round %d", k, g, seq, sg, r)
							return
						case !bytes.Equal(d, batchPayload(sg, seq)):
							errs <- fmt.Errorf("datagram %d of sender %d corrupted", seq, sg)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	buf := make([]byte, MaxDatagram)
	for i, rc := range recv {
		if _, _, err := rc.Recv(buf, 0); err != ErrTimeout {
			t.Errorf("receiver %d holds a datagram beyond its share (duplicate?)", i)
		}
	}
	for g, n := range calls {
		if sendmmsgBuild() && n >= rounds*perBatch {
			t.Errorf("sender %d made %d send calls for %d datagrams: not batched", g, n, rounds*perBatch)
		}
	}
}

// TestBatchRejectedDestinationMidBatch puts a destination the kernel
// refuses — UDP port 0, EINVAL — in the middle of a batch. It is
// dropped, as a failed Send is, and every other datagram still goes, in
// order.
func TestBatchRejectedDestinationMidBatch(t *testing.T) {
	src, dst := listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")
	bad := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
	if src.Send(bad, []byte("probe")) == nil {
		t.Skip("this host accepts a send to UDP port 0")
	}
	var b Batch
	const n = 9
	for i := 0; i < n; i++ {
		to := dst.LocalAddr()
		if i == n/2 {
			to = bad
		}
		b.Add(to, batchPayload(0, i))
	}
	b.Flush(src)
	got := drain(t, dst, n-1)
	for i, d := range got {
		seq := i
		if i >= n/2 {
			seq++
		}
		if !bytes.Equal(d, batchPayload(0, seq)) {
			t.Fatalf("datagram %d: got sequence %d, want %d", i, binary.BigEndian.Uint32(d[4:]), seq)
		}
	}
}

// TestBatchAddressFamilies flushes through sockets of each family: IPv4,
// IPv6 loopback (skipped where [::1] is unavailable), and a dual-stack
// wildcard socket sending to an IPv4 receiver as a v4-mapped address.
func TestBatchAddressFamilies(t *testing.T) {
	for _, tc := range []struct{ name, src, dst string }{
		{"ipv4", "127.0.0.1:0", "127.0.0.1:0"},
		{"ipv6", "[::1]:0", "[::1]:0"},
		{"dual-stack-to-ipv4", ":0", "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := listenUDP(t, tc.src), listenUDP(t, tc.dst)
			var b Batch
			const n = 12
			for i := 0; i < n; i++ {
				b.Add(dst.LocalAddr(), batchPayload(1, i))
			}
			b.Flush(src)
			for i, d := range drain(t, dst, n) {
				if !bytes.Equal(d, batchPayload(1, i)) {
					t.Fatalf("datagram %d arrived as sequence %d", i, binary.BigEndian.Uint32(d[4:]))
				}
			}
		})
	}
}

// TestBatchFaultConnPerDatagram: a FaultConn over a UDP socket keeps
// Flush on its own Send, so the injector still drops and duplicates
// each datagram of a batch.
func TestBatchFaultConnPerDatagram(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name string
		cfg  FaultConfig
		want int
	}{
		{"drop", FaultConfig{Seed: 1, DropProb: 1}, 0},
		{"duplicate", FaultConfig{Seed: 1, DupProb: 1}, 2 * n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := listenUDP(t, "127.0.0.1:0"), listenUDP(t, "127.0.0.1:0")
			fc := NewFaultConn(src, tc.cfg)
			var b Batch
			for i := 0; i < n; i++ {
				b.Add(dst.LocalAddr(), batchPayload(2, i))
			}
			if calls := b.Flush(fc); calls != n {
				t.Errorf("Flush through a FaultConn made %d calls, want one Send per datagram (%d)", calls, n)
			}
			got := 0
			if tc.want > 0 {
				got = len(drain(t, dst, tc.want))
			}
			buf := make([]byte, MaxDatagram)
			if _, _, err := dst.Recv(buf, 50*time.Millisecond); err != ErrTimeout {
				got++
			}
			if got != tc.want {
				t.Errorf("received %d datagrams, want %d", got, tc.want)
			}
			st := fc.Stats()
			if st.Dropped+st.Duplicated != n {
				t.Errorf("injector saw %d drops and %d duplicates, want %d datagrams' worth", st.Dropped, st.Duplicated, n)
			}
		})
	}
}

package server

import (
	"fmt"
	"net"
	"runtime"
	"testing"

	"qserve/internal/checkpoint"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/transport"
)

// The allocation gates of the engine's per-frame paths (DESIGN.md §9):
// each test requires exactly 0 allocations in steady state.

// discardConn is a worker endpoint whose sends vanish, so a reply-sweep
// measurement counts the sweep and not a transport.
type discardConn struct{ transport.Conn }

func (discardConn) Send(transport.Addr, []byte) error { return nil }

// connectedEngine returns a stepped sequential engine with n clients
// that have joined and moved for a few frames, so each has an entity
// and a warm delta baseline.
func connectedEngine(t *testing.T, n int) *Parallel {
	t.Helper()
	eng, net := newSteppedEngine(t, 0, nil)
	eng.StartStepped()
	cls := make([]*rawClient, n)
	for i := range cls {
		cls[i] = newRawClient(t, net, fmt.Sprintf("cl:%d", i))
		cls[i].send(t, &protocol.Connect{Name: fmt.Sprint("c", i), FrameMs: 33})
	}
	eng.StepFrame()
	for seq := uint32(1); seq <= 3; seq++ {
		for _, c := range cls {
			c.send(t, &protocol.Move{Seq: seq, Cmd: protocol.MoveCmd{Forward: 200, Yaw: int16(seq * 900), Msec: 33}})
		}
		eng.StepFrame()
	}
	if got := eng.NumClients(); got != n {
		t.Fatalf("%d of %d clients connected", got, n)
	}
	return eng
}

// TestReplySweepAllocFree: a whole reply sweep — the visibility-index
// build (visBuilder.acquire, encodeOne), sendReplies forming and queueing
// a snapshot for every client, the mid-sweep batch sends, and the
// closing flushReplies — over a discard Conn. More clients than
// replyBatch make the sweep flush inside the loop as well as after it.
func TestReplySweepAllocFree(t *testing.T) {
	eng := connectedEngine(t, 2*replyBatch+3)
	w := eng.workers[0]
	w.conn = discardConn{w.conn}
	clients := eng.clients.snapshotInto(nil)
	frame := uint64(1000)
	sweep := func() {
		frame++
		for _, c := range clients {
			c.replyPending = true
		}
		vi := eng.vis.acquire(frame, eng.world)
		eng.sendReplies(w, vi, uint32(frame))
		w.flushReplies()
	}
	for i := 0; i < 8; i++ { // warm-up: baselines and batch arrays reach their high-water marks
		sweep()
	}
	sent := w.bd.ReplyDatagrams
	if allocs := testing.AllocsPerRun(50, sweep); allocs != 0 {
		t.Fatalf("reply sweep allocates %.1f objects per frame, want 0", allocs)
	}
	if got, want := w.bd.ReplyDatagrams-sent, int64(51*len(clients)); got != want {
		t.Fatalf("sweeps sent %d replies, want %d", got, want)
	}
}

// TestCaptureCheckpointAllocFree: captureCheckpoint against a real
// checkpoint.Writer, full images and deltas. The writer's flusher does
// file I/O and allocates, so testing.AllocsPerRun, which counts every
// goroutine, cannot see the capture's own allocations; this test counts
// around one capture instead, with GOMAXPROCS(1) so the flusher runs
// only while the capture is parked or preempted — and a capture never
// parks. Half the clients call from UDP senders, whose address text the
// capture appends from the binary key rather than formatting it.
func TestCaptureCheckpointAllocFree(t *testing.T) {
	eng := connectedEngine(t, 8)
	for i, c := range eng.clients.snapshotInto(nil) {
		if i%2 == 0 {
			eng.clients.rebind(c, &net.UDPAddr{IP: net.IPv4(10, 0, 0, byte(i)).To4(), Port: 27960 + i})
		}
	}
	wr, err := checkpoint.NewWriter(checkpoint.Config{Dir: t.TempDir(), DeltaEvery: 1, WorldSeed: 3, Map: eng.world.Map})
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var bd metrics.Breakdown
	var buf []*client
	frame := uint64(100)
	// capture retries until Begin finds a free buffer and returns the
	// heap allocations of the call that captured.
	capture := func() uint64 {
		for {
			frame++
			done := bd.Checkpoints
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			buf = captureCheckpoint(wr, eng.world, eng.clients, buf, nil, frame, 0, &bd)
			runtime.ReadMemStats(&after)
			if bd.Checkpoints > done {
				return after.Mallocs - before.Mallocs
			}
			runtime.Gosched() // the flusher owns both buffers: let it finish
		}
	}
	for i := 0; i < 4; i++ { // warm-up: two full images and two deltas
		capture()
	}
	for i := 0; i < 8; i++ {
		if n := capture(); n != 0 {
			t.Fatalf("capture %d allocated %d objects, want 0", i, n)
		}
	}
	if bd.CheckpointDeltaBytes == 0 || bd.CheckpointFullBytes == 0 {
		t.Fatalf("captures wrote %d full and %d delta bytes; want both kinds", bd.CheckpointFullBytes, bd.CheckpointDeltaBytes)
	}
	if err := wr.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClientLookupAllocFree: the request path's client-table lookup of a
// UDP sender. The table is keyed by transport.Key, so the *net.UDPAddr a
// socket reports is looked up without formatting its address.
func TestClientLookupAllocFree(t *testing.T) {
	tab := newClientTable(8)
	c := &client{addr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1).To4(), Port: 27960}}
	if !tab.add(c) {
		t.Fatal("join refused")
	}
	from := transport.Addr(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 27960}) // the 16-byte form
	if tab.lookup(from) != c {
		t.Fatal("lookup missed the client")
	}
	if allocs := testing.AllocsPerRun(1000, func() { tab.lookup(from) }); allocs != 0 {
		t.Fatalf("client lookup allocates %.1f objects, want 0", allocs)
	}
}

// TestStealPoolAllocFree: one frame of a worker's steal pool — pushes,
// a thief scan that defers a hinted region, a park and requeue, and the
// owner's drain — through the live stealPool and so the shared StealPool
// (Push, Take, takeScan, Requeue).
func TestStealPoolAllocFree(t *testing.T) {
	clients := make([]*client, 4)
	for i := range clients {
		clients[i] = &client{id: uint16(i + 1)}
	}
	self := &worker{id: 0}
	var p stealPool
	taken := 0
	frame := func() {
		for i := 0; i < 2*len(clients); i++ {
			p.push(poolEntry{Client: clients[i%len(clients)], Idx: i, Hint: 1 << (i % len(clients))})
		}
		e, ok := p.take(self, true, 1) // a thief, avoiding region 0
		if !ok || e.Client == clients[0] {
			t.Fatalf("thief scan took %v, %v", e.Client, ok)
		}
		e.Parks++
		p.requeue(e) // the claim is still held: parked at the front
		e.Client.claim.Store(0)
		for {
			e, ok := p.take(self, false, 0)
			if !ok {
				break
			}
			e.Client.claim.Store(0)
			taken++
		}
	}
	frame()
	taken = 0
	if allocs := testing.AllocsPerRun(100, frame); allocs != 0 {
		t.Fatalf("steal pool frame allocates %.1f objects, want 0", allocs)
	}
	if want := 101 * 2 * len(clients); taken != want {
		t.Fatalf("drained %d entries, want %d", taken, want)
	}
}

package server

import (
	"fmt"
	"testing"
	"time"

	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

func newSteppedEngine(t *testing.T, threads int, shared *SharedBufs) (*Parallel, *transport.Network) {
	t.Helper()
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.NetworkConfig{})
	conns := make([]transport.Conn, max(threads, 1))
	for i := range conns {
		if conns[i], err = net.Listen(fmt.Sprintf("srv:%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewParallel(Config{World: w, Conns: conns, Threads: threads, Shared: shared})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	return eng, net
}

// TestStepFrameIdleParksBuffers: a stepped engine over a shared pool
// holds no frame buffers and no region locks at construction; an idle
// step borrows the buffer set, skips the visibility build, and parks the
// set again; a step with a client keeps it and builds the index.
func TestStepFrameIdleParksBuffers(t *testing.T) {
	pool := NewSharedBufs()
	eng, net := newSteppedEngine(t, 0, pool)
	w := eng.workers[0]
	if w.scratch != nil || eng.vis.index != nil || w.locker != nil {
		t.Fatal("stepped sequential engine allocated scratch, an index or a region locker at construction")
	}
	eng.StartStepped()
	for i := 0; i < 3; i++ {
		if eng.StepFrame() {
			t.Fatalf("step %d: idle engine reported active", i)
		}
		if w.scratch != nil || w.bufs != nil || eng.vis.index != nil {
			t.Fatalf("step %d: idle step kept its borrowed buffers", i)
		}
		if pool.Made() != 1 || pool.Free() != 1 {
			t.Fatalf("step %d: pool made %d, free %d; want the one set back", i, pool.Made(), pool.Free())
		}
	}
	if bd := eng.Breakdowns()[0]; bd.SnapBuildNs != 0 {
		t.Fatalf("idle steps built the visibility index: SnapBuildNs = %d", bd.SnapBuildNs)
	}

	c := newRawClient(t, net, "")
	c.send(t, &protocol.Connect{Name: "c", FrameMs: 33})
	if !eng.StepFrame() {
		t.Fatal("step with a connect reported idle")
	}
	if _, ok := c.recv(t, time.Second).(*protocol.Accept); !ok {
		t.Fatal("client not accepted")
	}
	c.send(t, &protocol.Move{Seq: 1, Cmd: protocol.MoveCmd{Msec: 33}})
	if !eng.StepFrame() {
		t.Fatal("step with a client reported idle")
	}
	if w.scratch == nil || eng.vis.index == nil || pool.Free() != 0 {
		t.Fatal("active engine parked its buffers")
	}
	if _, ok := c.recv(t, time.Second).(*protocol.Snapshot); !ok {
		t.Fatal("move not answered with a snapshot")
	}
	if bd := eng.Breakdowns()[0]; bd.SnapBuildNs == 0 {
		t.Fatal("active step did not build the visibility index")
	}
}

// TestStartSteppedRejectsMultiLane: stepping runs the whole frame on the
// caller, so nobody would meet a second worker at the frame barriers.
func TestStartSteppedRejectsMultiLane(t *testing.T) {
	eng, _ := newSteppedEngine(t, 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("StartStepped accepted a two-worker engine")
		}
	}()
	eng.StartStepped()
}

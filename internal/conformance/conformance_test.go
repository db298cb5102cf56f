package conformance

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"qserve/internal/balance"
	"qserve/internal/game"
	"qserve/internal/metrics"
	"qserve/internal/protocol"
	"qserve/internal/replay"
	"qserve/internal/server"
	"qserve/internal/simserver"
	"qserve/internal/transport"
)

const (
	confPlayers = 6
	confMoves   = 60
)

var (
	scOnce sync.Once
	scVal  *Scenario
	scErr  error
)

func scenario(t *testing.T) *Scenario {
	t.Helper()
	scOnce.Do(func() { scVal, scErr = BuildScenario(confPlayers, confMoves) })
	if scErr != nil {
		t.Fatal(scErr)
	}
	return scVal
}

// forcedBalance migrates every frame: the strongest exercise of the
// migration machinery the conformance claim must survive.
func forcedBalance() balance.Policy {
	return balance.Policy{Enabled: true, EveryFrame: true, MaxMigrations: 4}
}

// lockClient is a raw-protocol lockstep client: send one move, wait for
// its acknowledging snapshot, repeat. At most one command is ever in
// flight, so engine-side frame composition cannot reorder a client's
// own moves.
type lockClient struct {
	idx    int
	conn   transport.Conn
	server transport.Addr
	buf    []byte
	w      protocol.Writer
}

func (lc *lockClient) send(t *testing.T, msg any) {
	t.Helper()
	lc.w.Reset()
	if err := protocol.Encode(&lc.w, msg); err != nil {
		t.Fatalf("client %d: encode: %v", lc.idx, err)
	}
	if err := lc.conn.Send(lc.server, lc.w.Bytes()); err != nil {
		t.Fatalf("client %d: send: %v", lc.idx, err)
	}
}

func (lc *lockClient) connect(t *testing.T) {
	t.Helper()
	lc.send(t, &protocol.Connect{Name: fmt.Sprintf("conf-%d", lc.idx), FrameMs: 33, ProtocolVer: protocol.Version})
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, _, err := lc.conn.Recv(lc.buf, time.Until(deadline))
		if err != nil {
			t.Fatalf("client %d: connect: %v", lc.idx, err)
		}
		msg, err := protocol.Decode(lc.buf[:n])
		if err != nil {
			continue
		}
		switch m := msg.(type) {
		case *protocol.Accept:
			addr, err := transport.ResolveLike(lc.conn, m.Addr)
			if err != nil {
				t.Fatalf("client %d: bad accept addr %q: %v", lc.idx, m.Addr, err)
			}
			lc.server = addr
			return
		case *protocol.Reject:
			t.Fatalf("client %d: rejected: %s", lc.idx, m.Reason)
		}
	}
}

func (lc *lockClient) awaitAck(t *testing.T, seq uint32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, _, err := lc.conn.Recv(lc.buf, time.Until(deadline))
		if err != nil {
			t.Fatalf("client %d: waiting for ack of seq %d: %v", lc.idx, seq, err)
		}
		msg, err := protocol.Decode(lc.buf[:n])
		if err != nil {
			continue
		}
		if snap, ok := msg.(*protocol.Snapshot); ok && snap.AckSeq == seq {
			return
		}
	}
}

// runLive drives the scenario through a live engine over the mem
// transport. threads == 0 selects the sequential engine; stealing turns
// on the work-stealing request scheduler.
func runLive(t *testing.T, sc *Scenario, threads int, pol balance.Policy, stealing bool) []PlayerState {
	t.Helper()
	world, err := game.NewWorld(game.Config{Map: sc.Map, Seed: sc.WorldSeed})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	nConns := threads
	if nConns == 0 {
		nConns = 1
	}
	conns := make([]transport.Conn, nConns)
	for i := range conns {
		c, err := net.Listen(fmt.Sprintf("srv:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	rec, err := replay.NewRecorder(sc.Map, sc.WorldSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		World:         world,
		Conns:         conns,
		Threads:       threads,
		MaxClients:    sc.Players + 2,
		SelectTimeout: 2 * time.Millisecond,
		Balance:       pol,
		Stealing:      stealing,
		Record:        rec,
	}
	var eng server.Engine
	var par *server.Parallel
	if threads == 0 {
		seq, err := server.NewSequential(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng = seq
	} else {
		par, err = server.NewParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng = par
	}
	eng.Start()
	defer eng.Stop()

	clients := make([]*lockClient, sc.Players)
	for i := range clients {
		conn, err := net.Listen(fmt.Sprintf("conf-bot:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = &lockClient{
			idx:    i,
			conn:   conn,
			server: transport.MemAddr("srv:0"),
			buf:    make([]byte, 4*transport.MaxDatagram),
		}
		// Sequential admission: entity IDs must follow client index in
		// every engine.
		clients[i].connect(t)
	}
	for k := 0; k < sc.Moves; k++ {
		seq := uint32(k + 1)
		for i, lc := range clients {
			lc.send(t, &protocol.Move{Seq: seq, Cmd: sc.Script(i, int64(k))})
		}
		for _, lc := range clients {
			lc.awaitAck(t, seq)
		}
	}
	eng.Stop()
	// Every engine counts an executed command at the one commit point the
	// recorder taps, so the two must agree exactly (MergeThreads reports
	// the per-thread mean; the total is the sum).
	var total metrics.Breakdown
	for _, bd := range eng.Breakdowns() {
		total.Add(&bd)
	}
	if moves := rec.Finish(world).Moves(); total.ExecCmds == 0 || total.ExecCmds != int64(moves) {
		t.Fatalf("Breakdown.ExecCmds = %d, recorder captured %d moves", total.ExecCmds, moves)
	}
	if par != nil && pol.Enabled {
		if par.Migrations() == 0 {
			t.Fatal("balance-on run performed no migrations: the conformance table is not exercising migration")
		}
	}
	return sc.PlayerTable(world)
}

// runDES drives the scenario through the discrete-event engine.
func runDES(t *testing.T, sc *Scenario, threads int, sequential bool, pol balance.Policy, stealing bool) []PlayerState {
	t.Helper()
	res, err := simserver.Run(simserver.Config{
		Map:           sc.Map,
		Players:       sc.Players,
		Threads:       threads,
		Sequential:    sequential,
		Seed:          sc.WorldSeed,
		DurationS:     4,
		ClientFrameMs: 33,
		Script:        sc.Script,
		MaxMoves:      int64(sc.Moves),
		Balance:       pol,
		Stealing:      stealing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(sc.Players*sc.Moves) {
		t.Fatalf("DES executed %d requests, want %d", res.Requests, sc.Players*sc.Moves)
	}
	if pol.Enabled && res.Migrations == 0 {
		t.Fatal("balance-on DES run performed no migrations")
	}
	return sc.PlayerTable(res.World)
}

// TestCrossEngineConformance is the headline test: one seeded scenario
// through every engine × {2,4,8} threads × {balance off, balancer
// forced to migrate every frame} must yield identical end-of-run player
// tables. The live sequential engine is the reference.
func TestCrossEngineConformance(t *testing.T) {
	sc := scenario(t)
	want := runLive(t, sc, 0, balance.Policy{}, false)
	if len(want) != sc.Players {
		t.Fatalf("reference run has %d players, want %d", len(want), sc.Players)
	}
	for i, p := range want {
		// The scenario argument requires players to stay inside the reach
		// boxes the separation check used; verify, don't assume.
		sp := sc.Map.Spawns[i].Pos
		if d := p.Origin.Sub(sp).Flat().Len(); d > reachRadius-16 {
			t.Fatalf("player %d drifted %.1f units from spawn; reach margin %d is unsound", i, d, reachRadius)
		}
		if p.Health != 100 || p.Deaths != 0 {
			t.Fatalf("player %d took damage (health=%d deaths=%d); scenario is not interaction-free", i, p.Health, p.Deaths)
		}
	}

	for _, threads := range []int{2, 4, 8} {
		for _, balanced := range []bool{false, true} {
			for _, stealing := range []bool{false, true} {
				pol := balance.Policy{}
				if balanced {
					pol = forcedBalance()
				}
				threads, pol, stealing := threads, pol, stealing
				t.Run(fmt.Sprintf("live-parallel/threads=%d/balance=%v/steal=%v", threads, balanced, stealing), func(t *testing.T) {
					got := runLive(t, sc, threads, pol, stealing)
					if d := Diff(want, got); d != "" {
						t.Fatalf("parallel live diverged from sequential reference:\n%s", d)
					}
				})
				t.Run(fmt.Sprintf("des/threads=%d/balance=%v/steal=%v", threads, balanced, stealing), func(t *testing.T) {
					got := runDES(t, sc, threads, false, pol, stealing)
					if d := Diff(want, got); d != "" {
						t.Fatalf("DES diverged from sequential reference:\n%s", d)
					}
				})
			}
		}
	}
	t.Run("des/sequential", func(t *testing.T) {
		got := runDES(t, sc, 1, true, balance.Policy{}, false)
		if d := Diff(want, got); d != "" {
			t.Fatalf("sequential DES diverged from sequential reference:\n%s", d)
		}
	})
}

// TestScenarioSeparationIsChecked documents that BuildScenario fails
// loudly when asked for more separated players than the map can offer,
// instead of silently producing an interacting scenario.
func TestScenarioSeparationIsChecked(t *testing.T) {
	if _, err := BuildScenario(10_000, 1); err == nil {
		t.Fatal("BuildScenario accepted an impossible separation request")
	}
}

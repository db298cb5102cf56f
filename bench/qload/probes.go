//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"qserve/internal/areanode"
	"qserve/internal/balance"
	"qserve/internal/botclient"
	"qserve/internal/checkpoint"
	"qserve/internal/collide"
	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/geom"
	"qserve/internal/locking"
	"qserve/internal/physics"
	"qserve/internal/protocol"
	"qserve/internal/replay"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// Part B of the traced run: a scripted session in which the benchmark's
// own frame driver calls the layers in pipeline order with a span round
// each call, followed by direct probes of what ExecuteMove hides, on
// inputs sampled from that session. Nothing inside the engines is
// instrumented; every number is a call into a public function, timed
// from here.

const (
	probePlayers    = 256
	captureEvery    = 32 // frames between checkpoint captures
	probeDt         = float64(frameMs) / 1000
	sampleEvery     = 8 // one move in this many feeds the leaf probes
	leafProbeRounds = 4 // passes over the samples per leaf probe
)

// moveSample is one move as ExecuteMove met it: where the player stood
// and what the command asked for.
type moveSample struct {
	state   physics.State
	he, off geom.Vec3 // hull half extents and centre offset
	moveBox geom.AABB
	cmd     physics.Cmd
}

// session is the scripted world the probes run on.
type session struct {
	m       *worldmap.Map
	w       *game.World
	ents    []*entity.Entity
	bots    []*client // never connected: only their move generator is used
	dgrams  [][]byte  // this frame's move datagrams, one per player
	seq     uint32
	lc      game.LockContext
	lockSt  locking.AcquireStats
	work    game.Work
	moves   int64
	samples []moveSample
}

func newSession(m *worldmap.Map, seed int64, locked bool) (*session, error) {
	w, err := game.NewWorld(game.Config{Map: m, Seed: mapSeed})
	if err != nil {
		return nil, err
	}
	s := &session{m: m, w: w, dgrams: make([][]byte, probePlayers)}
	for i := 0; i < probePlayers; i++ {
		e, err := w.SpawnPlayer()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		s.ents = append(s.ents, e)
		s.bots = append(s.bots, &client{idx: i, rng: rng, m: m,
			nav: botclient.NewNavigator(m, rand.New(rand.NewSource(rng.Int63())))})
	}
	if locked {
		// As the parallel engine wires a worker, without its lock timing.
		s.lc = game.LockContext{
			Locker: &locking.RegionLocker{Tree: w.Tree,
				Provider: locking.NewMutexProvider(w.Tree.NumNodes())},
			Strategy: locking.Optimized{},
			Stats:    &s.lockSt,
		}
	}
	return s, nil
}

// prepare generates and encodes every player's next move, as the clients
// would have: the server's work starts at the datagram.
func (s *session) prepare(sample bool) error {
	s.seq++
	for i, b := range s.bots {
		e := s.ents[i]
		b.pos = e.Origin
		mv := protocol.Move{Seq: s.seq, Ack: s.seq - 1, Cmd: b.nextCmd()}
		var wr protocol.Writer
		if err := protocol.Encode(&wr, &mv); err != nil {
			return err
		}
		s.dgrams[i] = append(s.dgrams[i][:0], wr.Bytes()...)
		if sample && i%sampleEvery == int(s.seq)%sampleEvery && e.Health > 0 {
			fwd, _, _ := geom.AngleVectors(geom.V(0, mv.Cmd.ViewAngles().Y, 0))
			s.samples = append(s.samples, moveSample{
				state:   physics.State{Origin: e.Origin, Velocity: e.Velocity, OnGround: e.OnGround},
				he:      e.HalfExtents(),
				off:     e.CenterOffset(),
				moveBox: e.AbsBox().Expand(physics.MaxMoveDistance(s.w.Phys, frameMs)),
				cmd: physics.Cmd{WishDir: fwd, WishSpeed: float64(mv.Cmd.Forward),
					Jump: mv.Cmd.Buttons&protocol.BtnJump != 0},
			})
		}
	}
	return nil
}

// requests runs the request phase: decode -> ExecuteMove -> record, per
// datagram.
func (s *session) requests(tr *tracer, rec *replay.Recorder) error {
	for i, d := range s.dgrams {
		req := reqID(i, s.seq)
		tr.begin(spanRequestPath, req)
		tr.begin(spanDecodeMove, req)
		msg, err := protocol.Decode(d)
		tr.end()
		mv, ok := msg.(*protocol.Move)
		if err != nil || !ok {
			return fmt.Errorf("probe move did not decode: %v", err)
		}
		tr.begin(spanExecMove, req)
		res := s.w.ExecuteMove(s.ents[i], &mv.Cmd, &s.lc)
		tr.end()
		tr.begin(spanRecordMove, req)
		rec.RecordMove(uint16(i), mv.Seq, &mv.Cmd)
		tr.end()
		tr.end()
		s.work.Add(res.Work)
		s.moves++
	}
	return nil
}

// probeResult carries what the sessions measured to the metric table.
type probeResult struct {
	tr            *tracer
	visible       int64
	replies       int64
	captures      int64
	captureBytes  int64
	lastDatagrams [][]byte // one frame's snapshots, for the encode probe
}

// runSession drives the full pipeline for the given number of frames.
func (s *session) runSession(frames int, outDir string) (*probeResult, error) {
	pr := &probeResult{tr: newTracer(spansKept)}
	tr := pr.tr

	rec, err := replay.NewRecorder(s.m, mapSeed)
	if err != nil {
		return nil, err
	}
	rec.Reserve(frames*probePlayers + frames + 16)

	conn, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	sinkAddr := sink.LocalAddr().(*net.UDPAddr)
	sinkRaw, err := sink.SyscallConn()
	if err != nil {
		return nil, err
	}
	drainBuf := make([]byte, 4*transport.MaxDatagram)
	drain := func() { // empty the sink between frames, so sends never meet a full socket
		_ = sinkRaw.Read(func(fd uintptr) bool { // errors only once the sink is closed
			for {
				if n, _ := syscall.Read(int(fd), drainBuf); n <= 0 {
					return true
				}
			}
		})
	}

	ckDir := filepath.Join(outDir, "probe-checkpoints")
	if err := os.RemoveAll(ckDir); err != nil {
		return nil, err
	}
	wr, err := checkpoint.NewWriter(checkpoint.Config{
		Dir: ckDir, Interval: captureEvery, DeltaEvery: checkpoint.DefaultDeltaEvery,
		WorldSeed: mapSeed, Map: s.m,
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckDir)
	defer wr.Close()

	var (
		scratch   server.ReplyScratch
		vis       game.VisIndex
		baselines = make([]server.Baseline, probePlayers)
		events    []protocol.GameEvent
	)
	for f := 0; f < frames; f++ {
		if err := s.prepare(true); err != nil {
			return nil, err
		}
		tr.begin(spanFrame, 0)

		tr.begin(spanWorldFrame, 0)
		res := s.w.RunWorldFrame(probeDt)
		tr.end()
		rec.RecordTick(int64(probeDt * 1e9))
		events = events[:0]
		for _, ev := range res.Events {
			events = append(events, ev.WireEvent())
		}

		if err := s.requests(tr, rec); err != nil {
			return nil, err
		}

		tr.begin(spanVisBuild, 0)
		vis.Begin(s.w)
		for sh := 0; sh < vis.Shards(); sh++ {
			vis.EncodeShard(sh)
		}
		tr.end()

		last := f == frames-1
		for i, e := range s.ents {
			req := reqID(i, s.seq)
			tr.begin(spanReply, req)
			tr.begin(spanFormSnapshot, req)
			data, st := scratch.FormSnapshot(s.w, &vis, e, &baselines[i],
				uint32(f), s.seq, uint32(s.w.Time*1000), nil, events, 0)
			tr.end()
			tr.begin(spanUDPSend, req)
			err := conn.Send(sinkAddr, data)
			tr.end()
			tr.end()
			if err != nil {
				return nil, fmt.Errorf("probe send: %w", err)
			}
			pr.visible += int64(st.Work.Visible)
			pr.replies++
			if last {
				pr.lastDatagrams = append(pr.lastDatagrams, append([]byte(nil), data...))
			}
		}

		if wr.Due(uint64(f)) {
			tr.begin(spanCapture, 0)
			if wr.Begin(s.w, checkpoint.Meta{Frame: uint64(f), RecItems: uint64(rec.Items()),
				JoinIdx: probePlayers, NextClientID: probePlayers}) {
				for i, e := range s.ents {
					wr.AddClient(checkpoint.ClientRec{
						ID: uint16(i), EntID: int32(e.ID), LastSeq: s.seq, RepliedFrame: uint32(f),
						Name: s.bots[i].name, BaselineTag: baselines[i].Tag(), Baseline: baselines[i].States(),
					})
				}
				st := wr.Commit()
				pr.captures++
				pr.captureBytes += int64(st.Bytes)
			}
			tr.end()
		}
		tr.end() // frame
		rec.RecordFrameEnd(uint64(f))
		drain()
	}
	if err := wr.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint writer: %w", err)
	}
	return pr, nil
}

// perOp times n calls of f back to back. The leaf operations take a few
// hundred nanoseconds, so a clock read per call would be a large part of
// what it measured.
func perOp(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// allocsPerOp counts heap allocations per call from the runtime's own
// Mallocs counter.
func allocsPerOp(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// spanOverheadNs calibrates how much of the tracer's own clock reading
// lands inside a span, by timing empty ones.
func spanOverheadNs() float64 {
	t := newTracer(0)
	for i := 0; i < 200000; i++ {
		t.begin(spanFrame, 0)
		t.end()
	}
	return t.agg[spanFrame].meanNs()
}

// runProbes measures every "B" metric and returns the session's spans
// for trace.json with the span overhead it subtracted.
func runProbes(e *env, frames int) (metricSet, tracePart, float64, error) {
	m := metricSet{}
	fail := func(err error) (metricSet, tracePart, float64, error) { return nil, tracePart{}, 0, err }

	// Set-up costs: what qserved pays before it can accept a client.
	var genMs, worldMs []float64
	for i := 0; i < 3; i++ {
		mc := worldmap.DefaultConfig()
		mc.Seed = mapSeed
		t0 := time.Now()
		gm, err := worldmap.Generate(mc)
		if err != nil {
			return fail(err)
		}
		genMs = append(genMs, float64(time.Since(t0).Nanoseconds())/1e6)
		t0 = time.Now()
		if _, err := game.NewWorld(game.Config{Map: gm, Seed: mapSeed}); err != nil {
			return fail(err)
		}
		worldMs = append(worldMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	m.set("worldmap.generate_ms", median(genMs), "ms")
	m.set("game.newworld_ms", median(worldMs), "ms")

	overhead := spanOverheadNs()
	net := func(a spanAgg) float64 { return max(a.meanNs()-overhead, 0) }

	// The pipeline session, lock-free as the sequential engine runs it.
	s, err := newSession(e.m, e.seed, false)
	if err != nil {
		return fail(err)
	}
	pr, err := s.runSession(frames, e.outDir)
	if err != nil {
		return fail(err)
	}
	agg := &pr.tr.agg
	moves := float64(s.moves)
	m.set("game.worldframe_ns", net(agg[spanWorldFrame]), "ns")
	m.set("server.request_path_ns", net(agg[spanRequestPath]), "ns")
	m.set("protocol.decode_move_ns", net(agg[spanDecodeMove]), "ns")
	m.set("game.execmove_ns", net(agg[spanExecMove]), "ns")
	m.set("replay.record_move_ns", net(agg[spanRecordMove]), "ns")
	m.set("game.visbuild_ns", net(agg[spanVisBuild]), "ns")
	m.set("server.formsnapshot_ns", net(agg[spanFormSnapshot]), "ns")
	m.set("checkpoint.capture_ns", net(agg[spanCapture]), "ns")
	m.set("checkpoint.bytes_per_capture", ratio(float64(pr.captureBytes), float64(pr.captures)), "B")
	m.set("game.visible_per_reply", ratio(float64(pr.visible), float64(pr.replies)), "count")
	m.set("collide.brush_tests_per_move", float64(s.work.Collide.BrushTests)/moves, "count")
	m.set("physics.traces_per_move", float64(s.work.PhysTraces)/moves, "count")
	m.set("areanode.nodes_per_move", float64(s.work.TreeNodes)/moves, "count")

	// The same script, move for move, under region locking with nobody to
	// contend with: what the lock protocol itself adds to a move.
	ls, err := newSession(e.m, e.seed, true)
	if err != nil {
		return fail(err)
	}
	ltr := newTracer(0)
	lrec, err := replay.NewRecorder(e.m, mapSeed)
	if err != nil {
		return fail(err)
	}
	lrec.Reserve(frames * probePlayers)
	for f := 0; f < frames; f++ {
		if err := ls.prepare(false); err != nil {
			return fail(err)
		}
		ls.w.RunWorldFrame(probeDt)
		if err := ls.requests(ltr, lrec); err != nil {
			return fail(err)
		}
	}
	m.set("game.execmove_locked_ns", net(ltr.agg[spanExecMove]), "ns")
	m.set("locking.leaf_ops_per_move", float64(ls.lockSt.LeafLockOps)/float64(ls.moves), "count")
	m.set("locking.parent_ops_per_move", float64(ls.lockSt.ParentLockOps)/float64(ls.moves), "count")

	// Allocation counts, on further frames of the first session.
	var rec *replay.Recorder
	if rec, err = replay.NewRecorder(e.m, mapSeed); err != nil {
		return fail(err)
	}
	rec.Reserve(8 * probePlayers)
	var perr error
	step := func() {
		if err := s.prepare(false); err != nil {
			perr = err
		}
		s.w.RunWorldFrame(probeDt)
	}
	step()
	m.set("protocol.decode_move_allocs", allocsPerOp(probePlayers, func(i int) {
		if _, err := protocol.Decode(s.dgrams[i]); err != nil {
			perr = err
		}
	}), "count")
	cmds := make([]protocol.MoveCmd, probePlayers)
	for i, d := range s.dgrams {
		msg, err := protocol.Decode(d)
		if err != nil {
			return fail(err)
		}
		cmds[i] = msg.(*protocol.Move).Cmd
	}
	m.set("game.execmove_allocs", allocsPerOp(probePlayers, func(i int) {
		s.w.ExecuteMove(s.ents[i], &cmds[i], &s.lc)
	}), "count")
	step()
	m.set("server.request_path_allocs", allocsPerOp(1, func(int) {
		if err := s.requests(nil, rec); err != nil {
			perr = err
		}
	})/probePlayers, "count")
	var (
		scratch   server.ReplyScratch
		vis       game.VisIndex
		baselines = make([]server.Baseline, probePlayers)
	)
	formAll := func(frame uint32) {
		vis.Build(s.w)
		for i, ent := range s.ents {
			scratch.FormSnapshot(s.w, &vis, ent, &baselines[i], frame, s.seq, 0, nil, nil, 0)
		}
	}
	formAll(1) // buffers and baselines reach their high-water mark first
	formAll(2)
	vis.Build(s.w)
	m.set("server.formsnapshot_allocs", allocsPerOp(probePlayers, func(i int) {
		scratch.FormSnapshot(s.w, &vis, s.ents[i], &baselines[i], 3, s.seq, 0, nil, nil, 0)
	}), "count")
	if perr != nil {
		return fail(perr)
	}

	// Leaves ExecuteMove hides, on the sampled moves.
	n := len(s.samples)
	if n == 0 {
		return fail(fmt.Errorf("probe session sampled no moves"))
	}
	reps := n * leafProbeRounds
	var cw collide.Work
	m.set("collide.tracebox_ns", perOp(reps, func(i int) {
		sm := &s.samples[i%n]
		a := sm.state.Origin.Add(sm.off)
		s.w.Collide.TraceBox(a, a.Add(sm.cmd.WishDir.Scale(sm.cmd.WishSpeed*probeDt)), sm.he, &cw)
	}), "ns")
	m.set("physics.playermove_ns", perOp(reps, func(i int) {
		sm := &s.samples[i%n]
		st := sm.state
		physics.PlayerMove(s.w.Phys, func(a, b geom.Vec3) collide.Trace {
			tr := s.w.Collide.TraceBox(a.Add(sm.off), b.Add(sm.off), sm.he, &cw)
			tr.End = tr.End.Sub(sm.off)
			return tr
		}, &st, sm.cmd, probeDt)
	}), "ns")
	var ts areanode.TraversalStats
	m.set("areanode.collectbox_ns", perOp(reps, func(i int) {
		s.w.Tree.CollectBox(s.samples[i%n].moveBox, nil, func(*areanode.Item) bool { return true }, &ts)
	}), "ns")
	m.set("areanode.relink_ns", perOp(reps, func(i int) {
		ent := s.ents[i%len(s.ents)]
		s.w.Tree.Link(&ent.Link, ent.AbsBox())
	}), "ns")
	rl := locking.RegionLocker{Tree: s.w.Tree, Provider: locking.NewMutexProvider(s.w.Tree.NumNodes())}
	var as locking.AcquireStats
	bounds := s.w.Tree.Bounds()
	m.set("locking.acquire_release_ns", perOp(reps, func(i int) {
		sm := &s.samples[i%n]
		region := locking.Optimized{}.Region(bounds,
			locking.Request{Start: sm.state.Origin, MoveBox: sm.moveBox}, locking.KindShortRange)
		g := rl.Acquire(region, &as)
		g.Release()
	}), "ns")

	bal := balance.New(balance.Policy{Enabled: true})
	rng := rand.New(rand.NewSource(e.seed))
	loads, threads := make([]int64, probePlayers), make([]int, probePlayers)
	for i := range loads {
		loads[i], threads[i] = 20000+rng.Int63n(40000), i%2
	}
	m.set("balance.plan_ns", perOp(2000, func(int) { bal.Plan(loads, threads, 2) }), "ns")

	// Wire encoding of the session's last frame of snapshots.
	snaps := make([]*protocol.Snapshot, 0, len(pr.lastDatagrams))
	bytes := 0
	for _, d := range pr.lastDatagrams {
		msg, err := protocol.Decode(d)
		if err != nil {
			return fail(fmt.Errorf("probe snapshot did not decode: %w", err))
		}
		snaps = append(snaps, msg.(*protocol.Snapshot))
		bytes += len(d)
	}
	var wr protocol.Writer
	m.set("protocol.encode_snapshot_ns", perOp(20*len(snaps), func(i int) {
		wr.Reset()
		if err := protocol.Encode(&wr, snaps[i%len(snaps)]); err != nil {
			perr = err
		}
	}), "ns")
	m.set("protocol.snapshot_bytes", float64(bytes)/float64(len(snaps)), "B")
	if perr != nil {
		return fail(perr)
	}

	if err := transportProbes(m); err != nil {
		return fail(err)
	}
	if err := idleStepProbe(m, e.m); err != nil {
		return fail(err)
	}
	return m, pr.tr.part("layer-probes"), overhead, nil
}

// transportProbes times one small datagram through each transport.
func transportProbes(m metricSet) error {
	const rounds = 2000
	payload := make([]byte, 26) // a Move datagram
	buf := make([]byte, transport.MaxDatagram)
	var perr error

	a, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	m.set("transport.udp_sendrecv_ns", perOp(rounds, func(int) {
		if err := a.Send(b.LocalAddr(), payload); err != nil {
			perr = err
		}
		if _, _, err := b.Recv(buf, time.Second); err != nil {
			perr = err
		}
	}), "ns")
	// The sequential engine ends its Rx phase on exactly this call.
	m.set("transport.udp_poll_empty_ns", perOp(200, func(int) {
		if _, _, err := b.Recv(buf, 0); err != transport.ErrTimeout {
			perr = fmt.Errorf("poll of an empty socket: %v", err)
		}
	}), "ns")

	mux := transport.NewMux([]transport.Conn{b})
	port := mux.Port(0)
	m.set("transport.mux_recv_ns", perOp(rounds, func(int) {
		if err := a.Send(b.LocalAddr(), payload); err != nil {
			perr = err
		}
		if _, _, err := port.Recv(buf, time.Second); err != nil {
			perr = err
		}
	}), "ns")
	mux.Close()

	mem := transport.NewNetwork(transport.NetworkConfig{})
	ma, err := mem.Listen("probe-a")
	if err != nil {
		return err
	}
	defer ma.Close()
	mb, err := mem.Listen("probe-b")
	if err != nil {
		return err
	}
	defer mb.Close()
	m.set("transport.mem_sendrecv_ns", perOp(rounds, func(int) {
		if err := ma.Send(mb.LocalAddr(), payload); err != nil {
			perr = err
		}
		if _, _, err := mb.Recv(buf, time.Second); err != nil {
			perr = err
		}
	}), "ns")
	return perr
}

// idleStepProbe times StepFrame on an empty stepped engine behind a mux
// port, as the match manager ticks an idle match. The engine's clock
// moves one idle interval per step, so every step runs world physics as
// a real idle tick does.
func idleStepProbe(m metricSet, wm *worldmap.Map) error {
	conn, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer conn.Close()
	mux := transport.NewMux([]transport.Conn{conn})
	defer mux.Close()
	_, port := mux.AddPort()
	w, err := game.NewWorld(game.Config{Map: wm, Seed: mapSeed})
	if err != nil {
		return err
	}
	clock := time.Now()
	eng, err := server.NewSequential(server.Config{
		World: w, Conns: []transport.Conn{port}, MaxClients: 32, Shared: server.NewSharedBufs(),
		Clock: func() time.Time { return clock },
	})
	if err != nil {
		return err
	}
	eng.StartStepped()
	m.set("match.idle_step_ns", perOp(500, func(int) {
		clock = clock.Add(250 * time.Millisecond)
		eng.StepFrame()
	}), "ns")
	return nil
}

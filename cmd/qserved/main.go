// qserved is the live game server daemon. It hosts a deathmatch session
// over real UDP sockets using either the sequential engine or the
// multithreaded engine with region locking — the deployable counterpart
// of the simulated experiments.
//
// Usage:
//
//	qserved -addr 127.0.0.1:27500 -threads 4 -locking optimized
//
// A server with N threads listens on N consecutive UDP ports starting at
// the given address: "a server appears to clients as one IP address and
// a range of UDP ports". Clients connect to the base port and are told
// their assigned port in the Accept reply. Stop with SIGINT/SIGTERM; the
// server prints its execution-time breakdown on exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"qserve/internal/balance"
	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/match"
	"qserve/internal/replay"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:27500", "base UDP address")
	threads := flag.Int("threads", 1, "server threads (0 = sequential engine)")
	lockMode := flag.String("locking", "conservative", "locking strategy: conservative or optimized")
	maxClients := flag.Int("maxclients", 128, "maximum simultaneous players")
	mapPath := flag.String("map", "", "map file (JSON, from qmap); empty generates the default map")
	mapSeed := flag.Int64("mapseed", 1, "seed for the generated map")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	bal := flag.Bool("balance", false, "enable dynamic client->thread load balancing (parallel engine)")
	steal := flag.Bool("steal", false, "conflict-aware work-stealing request execution (parallel engine)")
	watchdog := flag.Duration("watchdog", 0, "frame watchdog deadline per phase (0 disables)")
	quarantine := flag.Bool("quarantine", false, "watchdog also quarantines the client a wedged thread was serving")
	budget := flag.Duration("budget", 0, "frame-time budget for overload shedding (0 disables)")
	dropP := flag.Float64("faultdrop", 0, "chaos: per-datagram drop probability on every port")
	dupP := flag.Float64("faultdup", 0, "chaos: per-datagram duplication probability")
	reorderP := flag.Float64("faultreorder", 0, "chaos: per-datagram reorder probability")
	corruptP := flag.Float64("faultcorrupt", 0, "chaos: per-datagram bit-flip probability")
	faultSeed := flag.Int64("faultseed", 1, "chaos: fault stream seed")
	recordPath := flag.String("record", "", "stream the session's deterministic input stream to this file as it runs (durable redo log; replay with qreplay)")
	ckptDir := flag.String("checkpoint", "", "checkpoint directory: capture durable world checkpoints at the reply barrier (enables -restore after a crash)")
	ckptInterval := flag.Uint64("checkpoint-interval", checkpoint.DefaultInterval, "frames between checkpoints")
	ckptDelta := flag.Int("checkpoint-delta", checkpoint.DefaultDeltaEvery, "delta checkpoints between full images (0 = every checkpoint full)")
	restore := flag.Bool("restore", false, "cold-start from the newest valid checkpoint in -checkpoint; survivors reconnect onto their entities")
	restoreLog := flag.String("restore-log", "", "redo log (.qrl) from the crashed run, replayed past the checkpoint to the exact pre-crash frame")
	matches := flag.Int("matches", 0, "instancing mode: host N concurrent matches (m0..mN-1) on a shared worker pool behind one lobby socket")
	matchWorkers := flag.Int("match-workers", 0, "scheduler workers for -matches (0 = GOMAXPROCS)")
	matchActive := flag.Duration("match-active", 0, "frame cadence of a match with clients (-matches; 0 = 15ms default)")
	matchIdle := flag.Duration("match-idle", 0, "tick cadence of an empty match (-matches; 0 = 250ms default)")
	flag.Parse()

	if *matches > 0 {
		if *restore || *recordPath != "" || *ckptDir != "" || *threads > 1 {
			fatal(fmt.Errorf("-matches hosts sequential engines and does not compose with -threads/-record/-checkpoint/-restore"))
		}
		m, err := loadMap(*mapPath, *mapSeed)
		if err != nil {
			fatal(err)
		}
		runMatches(m, *mapSeed, *addr, *matches, *matchWorkers, *maxClients,
			*matchActive, *matchIdle, *statsEvery)
		return
	}

	var (
		m         *worldmap.Map
		world     *game.World
		rs        *server.RestoreState
		worldSeed = *mapSeed
		err       error
	)
	if *restore {
		if *ckptDir == "" {
			fatal(fmt.Errorf("-restore requires -checkpoint <dir>"))
		}
		t0 := time.Now()
		rv, err := replay.Recover(*ckptDir, *restoreLog)
		if err != nil {
			fatal(err)
		}
		// The checkpoint carries the authoritative map and world seed;
		// -map/-mapseed are ignored on a restore.
		world = rv.World
		m = rv.Checkpoint.Map
		worldSeed = rv.Checkpoint.WorldSeed
		rs = rv.RestoreState(time.Since(t0).Nanoseconds())
		fmt.Printf("qserved: recovered frame %d from %s (+%d redo items, %d bytes torn, %d survivors parked)\n",
			rv.Frames, *ckptDir, rv.TailItems, rv.TailDropped, len(rv.Clients))
	} else {
		if m, err = loadMap(*mapPath, *mapSeed); err != nil {
			fatal(err)
		}
		if world, err = game.NewWorld(game.Config{Map: m, Seed: *mapSeed}); err != nil {
			fatal(err)
		}
	}

	var strat locking.Strategy = locking.Conservative{}
	if *lockMode == "optimized" {
		strat = locking.Optimized{}
	}

	numConns := *threads
	if numConns < 1 {
		numConns = 1
	}
	conns, err := openPorts(*addr, numConns)
	if err != nil {
		fatal(err)
	}
	fcfg := transport.FaultConfig{
		Seed:        *faultSeed,
		DropProb:    *dropP,
		DupProb:     *dupP,
		ReorderProb: *reorderP,
		CorruptProb: *corruptP,
	}.Clamped()
	if fcfg != (transport.FaultConfig{Seed: *faultSeed}) {
		// Self-inflicted chaos: wrap every port in the fault injector so a
		// deployment can be soak-tested without an external impairment box.
		for i, c := range conns {
			pc := fcfg
			pc.Seed = fcfg.Seed*31 + int64(i) + 1
			conns[i] = transport.NewFaultConn(c, pc)
		}
		fmt.Printf("qserved: fault injection on: drop=%.2g dup=%.2g reorder=%.2g corrupt=%.2g seed=%d\n",
			fcfg.DropProb, fcfg.DupProb, fcfg.ReorderProb, fcfg.CorruptProb, fcfg.Seed)
	}
	cfg := server.Config{
		World:            world,
		Conns:            conns,
		Threads:          *threads,
		Strategy:         strat,
		MaxClients:       *maxClients,
		WatchdogDeadline: *watchdog,
		QuarantineWedged: *quarantine,
		FrameBudget:      *budget,
		Stealing:         *steal,
	}
	if *bal {
		cfg.Balance = balance.Policy{Enabled: true}
	}
	cfg.Restore = rs
	// The stream recorder flushes every completed frame, so the log on
	// disk is a valid redo tail even after a kill -9 (a torn in-flight
	// frame is cut at the last intact record on recovery).
	var rec *replay.Recorder
	if *recordPath != "" {
		if rec, err = replay.NewStreamRecorder(*recordPath, m, worldSeed); err != nil {
			fatal(err)
		}
		cfg.Record = rec
		fmt.Printf("qserved: streaming session log to %s\n", *recordPath)
	}
	var ckw *checkpoint.Writer
	if *ckptDir != "" {
		if ckw, err = checkpoint.NewWriter(checkpoint.Config{
			Dir:        *ckptDir,
			Interval:   *ckptInterval,
			DeltaEvery: *ckptDelta,
			WorldSeed:  worldSeed,
			Map:        m,
		}); err != nil {
			fatal(err)
		}
		cfg.Checkpoint = ckw
		fmt.Printf("qserved: checkpointing to %s every %d frames (1 full per %d deltas)\n",
			*ckptDir, *ckptInterval, *ckptDelta)
	}

	var eng server.Engine
	mode := "sequential"
	if *threads <= 0 {
		eng, err = server.NewSequential(cfg)
	} else {
		eng, err = server.NewParallel(cfg)
		mode = fmt.Sprintf("parallel x%d (%s locking)", *threads, strat.Name())
		if *steal {
			mode += " +stealing"
		}
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("qserved: map %q (%d rooms), %s engine, base addr %s\n",
		m.Name, len(m.Rooms), mode, conns[0].LocalAddr())
	for i, c := range conns {
		fmt.Printf("  thread %d port: %s\n", i, c.LocalAddr())
	}
	eng.Start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var ticker *time.Ticker
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		defer ticker.Stop()
	} else {
		ticker = time.NewTicker(time.Hour)
		ticker.Stop()
	}
	for {
		select {
		case <-sig:
			fmt.Println("\nshutting down ...")
			// Graceful drain: notify every connected client it is being
			// disconnected, then stop.
			eng.Shutdown()
			if rec != nil {
				if err := rec.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "qserved: closing session log:", err)
				} else {
					fmt.Printf("recorded %d items (%d ticks) to %s\n",
						rec.Items(), rec.TickCount(), *recordPath)
				}
			}
			if ckw != nil {
				if err := ckw.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "qserved: checkpoint writer:", err)
				}
			}
			printBreakdowns(eng)
			return
		case <-ticker.C:
			fmt.Printf("clients=%d frames=%d replies=%d rate=%.1f/s in=%dKB out=%dKB\n",
				eng.NumClients(), eng.Frames(), eng.Replies(),
				float64(eng.Replies())/eng.Duration().Seconds(),
				eng.BytesIn()/1024, eng.BytesOut()/1024)
		}
	}
}

// runMatches is the instancing daemon: N sequential-engine matches
// multiplexed over one UDP socket and a shared worker pool. Clients
// join a specific match by naming it in their Connect datagram
// (qbot -match m3) or let the lobby assign one round-robin.
func runMatches(m *worldmap.Map, seed int64, addr string, n, workers, maxClients int, active, idle, statsEvery time.Duration) {
	conn, err := transport.ListenUDP(addr)
	if err != nil {
		fatal(err)
	}
	mgr := match.NewManager(match.Config{
		Workers:        workers,
		ActiveInterval: active,
		IdleInterval:   idle,
	})
	lobby := match.NewLobby(mgr, conn)
	// Every match reads the one immutable half of the world (collision
	// tree, visibility tables); only entities and the clock are per match.
	st := game.NewStatic(m)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%d", i)
		if _, err := lobby.CreateMatch(name, func(c transport.Conn) (*server.Sequential, error) {
			w, err := game.NewWorld(game.Config{Static: st, Seed: seed})
			if err != nil {
				return nil, err
			}
			return server.NewSequential(server.Config{
				World:      w,
				Conns:      []transport.Conn{c},
				MaxClients: maxClients,
				Shared:     mgr.Shared(),
			})
		}); err != nil {
			fatal(err)
		}
	}
	mgr.Start()
	fmt.Printf("qserved: instancing: %d matches (m0..m%d) behind lobby %s, map %q\n",
		n, n-1, conn.LocalAddr(), m.Name)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(time.Hour)
	ticker.Stop()
	if statsEvery > 0 {
		ticker = time.NewTicker(statsEvery)
		defer ticker.Stop()
	}
	for {
		select {
		case <-sig:
			fmt.Println("\nshutting down ...")
			lobby.Close()
			mgr.Stop()
			printMatchRollups(mgr, lobby)
			return
		case <-ticker.C:
			// Live ticks read only scheduler/lobby state; engine counters
			// are unstable while matches may be mid-step.
			fmt.Printf("matches=%d evictions=%d routed=%d rejects=%d scratch=%d\n",
				mgr.Len(), mgr.Evictions(), lobby.Routed(), lobby.Rejects(),
				mgr.Shared().Made())
		}
	}
}

// printMatchRollups prints one line per match that saw clients plus the
// manager-level aggregate. Idle matches only appear in the aggregate.
func printMatchRollups(mgr *match.Manager, lobby *match.Lobby) {
	for _, st := range mgr.Stats() {
		if st.Clients == 0 && st.Replies == 0 {
			continue
		}
		status := ""
		if st.Evicted {
			status = " EVICTED"
		}
		fmt.Printf("match %s: clients=%d frames=%d replies=%d step p50=%.3fms p99=%.3fms late p99=%.3fms in=%dKB out=%dKB%s\n",
			st.Name, st.Clients, st.Frames, st.Replies,
			st.StepP50Ms, st.StepP99Ms, st.LateP99Ms,
			st.BytesIn/1024, st.BytesOut/1024, status)
	}
	ag := mgr.AggregateStats()
	fmt.Printf("aggregate: matches=%d live=%d active=%d evicted=%d frames=%d replies=%d clients=%d\n",
		ag.Matches, ag.Live, ag.ActiveM, ag.Evicted, ag.Frames, ag.Replies, ag.Clients)
	fmt.Printf("aggregate: routed=%d rejects=%d scratch sets=%d\n",
		lobby.Routed(), lobby.Rejects(), ag.ScratchMade)
	fmt.Printf("aggregate step: %s\n", ag.StepHist.String())
	fmt.Printf("aggregate breakdown: %s\n", ag.Breakdown.String())
}

func loadMap(path string, seed int64) (*worldmap.Map, error) {
	if path != "" {
		return worldmap.LoadFile(path)
	}
	cfg := worldmap.DefaultConfig()
	cfg.Seed = seed
	return worldmap.Generate(cfg)
}

// openPorts opens n consecutive UDP ports starting at addr (when addr
// has port 0 the extra ports are also ephemeral).
func openPorts(addr string, n int) ([]transport.Conn, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("bad address %q: %w", addr, err)
	}
	base, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("bad port %q: %w", portStr, err)
	}
	conns := make([]transport.Conn, n)
	for i := 0; i < n; i++ {
		port := 0
		if base != 0 {
			port = base + i
		}
		c, err := transport.ListenUDP(net.JoinHostPort(host, strconv.Itoa(port)))
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

func printBreakdowns(eng server.Engine) {
	for i, bd := range eng.Breakdowns() {
		fmt.Printf("thread %d: %s\n", i, bd.String())
	}
	fmt.Printf("total: frames=%d replies=%d duration=%s in=%dKB out=%dKB\n",
		eng.Frames(), eng.Replies(), eng.Duration().Truncate(time.Millisecond),
		eng.BytesIn()/1024, eng.BytesOut()/1024)
	if par, ok := eng.(*server.Parallel); ok {
		fmt.Printf("migrations: %d\n", par.Migrations())
		if w, e := len(par.Wedges()), par.FaultEvictions(); w > 0 || e > 0 {
			fmt.Printf("robustness: wedges=%d evictions=%d shed-level=%d\n",
				w, e, par.ShedLevel())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qserved:", err)
	os.Exit(1)
}

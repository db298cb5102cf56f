// qserved is the live game server daemon. It hosts a deathmatch session
// over real UDP sockets on the server engine: -threads 0 is the
// sequential server (one thread, no region locks), -threads N the
// multithreaded server with region locking — the deployable counterpart
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
//
// The server is crash-only. With -watchdog D, a thread stuck in one frame
// phase for longer than D makes qserved print the wedge and every
// goroutine's stack to stderr and exit with status 3. qserved does not
// restart itself: run it under a supervisor that reruns it with
//
//	qserved -threads 4 -checkpoint DIR -restore -restore-log old.qrl
//
// which resumes from the newest checkpoint in DIR plus the redo tail of
// the crashed run's -record log; clients reconnect onto their entities.
// Without -checkpoint there is nothing to restore, and a restart is a
// fresh world.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qserve/internal/balance"
	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/match"
	"qserve/internal/metrics"
	"qserve/internal/replay"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:27500", "base UDP address")
	threads := flag.Int("threads", 1, "server threads (0 = the sequential server: one thread, no region locks)")
	lockMode := flag.String("locking", "conservative", "locking strategy: conservative or optimized")
	maxClients := flag.Int("maxclients", 128, "maximum simultaneous players")
	mapPath := flag.String("map", "", "map file (JSON, from qmap); empty generates the default map")
	mapSeed := flag.Int64("mapseed", 1, "seed for the generated map")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	bal := flag.Bool("balance", false, "enable dynamic client->thread load balancing (2+ threads)")
	steal := flag.Bool("steal", false, "conflict-aware work-stealing request execution (2+ threads)")
	watchdog := flag.Duration("watchdog", 0, "frame watchdog deadline per phase: a thread stuck longer exits the server with status 3 for a supervisor to restart with -restore (0 disables)")
	budget := flag.Duration("budget", 0, "frame-time budget for overload shedding (0 disables)")
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
	strat, err := locking.ParseStrategy(*lockMode)
	if err != nil {
		fatal(err)
	}

	if *matches > 0 {
		set := map[string]string{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
		if err := checkMatchFlags(set); err != nil {
			fatal(err)
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

	conns, err := openPorts(*addr, max(*threads, 1))
	if err != nil {
		fatal(err)
	}
	cfg := server.Config{
		World:            world,
		Conns:            conns,
		Threads:          *threads,
		Strategy:         strat,
		MaxClients:       *maxClients,
		WatchdogDeadline: *watchdog,
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

	eng, err := server.NewParallel(cfg)
	if err != nil {
		fatal(err)
	}
	mode := "sequential"
	if *threads > 0 {
		mode = fmt.Sprintf("parallel x%d (%s locking)", *threads, strat.Name())
		if *steal {
			mode += " +stealing"
		}
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

// matchFlags are the flags instancing reads. -matches hosts sequential
// servers behind one lobby socket, so every other flag would be ignored.
var matchFlags = map[string]bool{
	"addr": true, "map": true, "mapseed": true, "maxclients": true, "stats": true,
	"matches": true, "match-workers": true, "match-active": true, "match-idle": true,
}

// checkMatchFlags refuses the explicitly set flags, given as name →
// value, that -matches would ignore. -threads 0 names what every match
// already is, the sequential server, so it is accepted.
func checkMatchFlags(set map[string]string) error {
	var ignored []string
	for name, v := range set {
		if !matchFlags[name] && (name != "threads" || v != "0") {
			ignored = append(ignored, "-"+name)
		}
	}
	if len(ignored) == 0 {
		return nil
	}
	sort.Strings(ignored)
	return fmt.Errorf("-matches hosts sequential servers behind one lobby socket and ignores %s",
		strings.Join(ignored, " "))
}

// runMatches is the instancing daemon: N sequential-server matches
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
		if _, err := lobby.CreateMatch(name, func(c transport.Conn) (*server.Parallel, error) {
			w, err := game.NewWorld(game.Config{Static: st, Seed: seed})
			if err != nil {
				return nil, err
			}
			return server.NewParallel(server.Config{
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

func printBreakdowns(eng *server.Parallel) {
	var all metrics.Breakdown
	for i, bd := range eng.Breakdowns() {
		fmt.Printf("thread %d: %s\n", i, bd.String())
		all.Add(&bd)
	}
	if all.ReplySendCalls > 0 {
		fmt.Printf("reply sends: %d datagrams in %d calls (%.1f per call)\n",
			all.ReplyDatagrams, all.ReplySendCalls, float64(all.ReplyDatagrams)/float64(all.ReplySendCalls))
	}
	fmt.Printf("total: frames=%d replies=%d duration=%s in=%dKB out=%dKB\n",
		eng.Frames(), eng.Replies(), eng.Duration().Truncate(time.Millisecond),
		eng.BytesIn()/1024, eng.BytesOut()/1024)
	fmt.Printf("migrations: %d\n", eng.Migrations())
	if e := eng.FaultEvictions(); e > 0 {
		fmt.Printf("robustness: evictions=%d shed-level=%d\n", e, eng.ShedLevel())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qserved:", err)
	os.Exit(1)
}

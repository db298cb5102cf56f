// Deathmatch: a full live session over real UDP sockets — the parallel
// server with optimized region locking hosting 24 bots that navigate,
// fight, pick up items, and teleport, with a scoreboard at the end.
// Everything runs in one process, but over the loopback network with the
// complete wire protocol, exactly as a distributed deployment would.
//
//	go run ./examples/deathmatch
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

const (
	numBots  = 24
	threads  = 4
	playTime = 5 * time.Second
)

func main() {
	mapCfg := worldmap.DefaultConfig()
	mapCfg.Rows, mapCfg.Cols = 4, 4
	mapCfg.Name = "gen-dm16"
	mapCfg.Seed = 11
	mapCfg.DoorProb = 0.5 // animated doors on half the doorways
	m, err := worldmap.Generate(mapCfg)
	if err != nil {
		log.Fatal(err)
	}
	world, err := game.NewWorld(game.Config{Map: m, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	// One UDP port per server thread.
	conns := make([]transport.Conn, threads)
	for i := range conns {
		c, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		conns[i] = c
	}
	srv, err := server.NewParallel(server.Config{
		World:      world,
		Conns:      conns,
		Threads:    threads,
		Strategy:   locking.Optimized{},
		MaxClients: numBots,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	fmt.Printf("deathmatch on %q: %d threads, base port %s\n",
		m.Name, threads, conns[0].LocalAddr())

	// Connect the bots over UDP.
	bots := make([]*botclient.Bot, numBots)
	for i := range bots {
		conn, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srvAddr, err := conn.Resolve(conns[0].LocalAddr().String())
		if err != nil {
			log.Fatal(err)
		}
		bots[i], err = botclient.New(botclient.Config{
			Name:     fmt.Sprintf("player-%02d", i),
			Conn:     conn,
			Server:   srvAddr,
			Map:      m,
			Seed:     int64(i * 13),
			FireProb: 0.25,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := bots[i].Connect(); err != nil {
			log.Fatalf("bot %d: %v", i, err)
		}
	}
	fmt.Printf("%d players joined; fighting for %s ...\n", numBots, playTime)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range bots {
		wg.Add(1)
		go func(b *botclient.Bot) {
			defer wg.Done()
			b.Run(stop)
		}(b)
	}
	time.Sleep(playTime)
	close(stop)
	wg.Wait()
	srv.Stop()

	// Scoreboard.
	type row struct {
		name          string
		kills, deaths int64
		resp          float64
	}
	rows := make([]row, numBots)
	var agg metrics.ResponseStats
	for i, b := range bots {
		rows[i] = row{
			name:   fmt.Sprintf("player-%02d", i),
			kills:  b.Kills,
			deaths: b.Deaths,
			resp:   b.Resp.MeanLatencyMs(),
		}
		agg.Merge(b.Resp)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].kills > rows[b].kills })
	fmt.Println("\n  scoreboard")
	fmt.Println("  name        kills  deaths  resp(ms)")
	for _, r := range rows[:8] {
		fmt.Printf("  %-10s  %5d  %6d  %8.1f\n", r.name, r.kills, r.deaths, r.resp)
	}
	fmt.Printf("\nserver: %d frames, %d replies over %s\n",
		srv.Frames(), srv.Replies(), srv.Duration().Truncate(time.Millisecond))
	avg := metrics.MergeThreads(srv.Breakdowns())
	fmt.Printf("avg thread breakdown: %s\n", avg.String())
	fmt.Printf("overall response: %.1f replies/s, %.1fms mean\n",
		float64(agg.Replies)/playTime.Seconds(), agg.MeanLatencyMs())
}

// qbot drives a fleet of automatic players against a live qserved
// instance over UDP — the client side of the paper's testbed, where
// "a number of dual-processor systems" ran scripted clients.
//
// Usage:
//
//	qbot -server 127.0.0.1:27500 -n 32 -t 60s -mapseed 1
//
// The bots regenerate the same map the server uses (same seed) for
// waypoint navigation, connect, play for the duration, and report the
// aggregate response rate and response time.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/metrics"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

func main() {
	serverAddr := flag.String("server", "127.0.0.1:27500", "server base address")
	n := flag.Int("n", 16, "number of bots")
	dur := flag.Duration("t", 30*time.Second, "play duration")
	mapPath := flag.String("map", "", "map file; empty regenerates from -mapseed")
	mapSeed := flag.Int64("mapseed", 1, "seed matching the server's map")
	frameMs := flag.Int("framems", 33, "client frame duration (ms)")
	matchName := flag.String("match", "", "match to join on an instancing server (-matches); empty lets the lobby assign one")
	flag.Parse()

	m, err := loadMap(*mapPath, *mapSeed)
	if err != nil {
		fatal(err)
	}

	bots := make([]*botclient.Bot, 0, *n)
	for i := 0; i < *n; i++ {
		conn, err := transport.ListenUDP("0.0.0.0:0")
		if err != nil {
			fatal(err)
		}
		srv, err := conn.Resolve(*serverAddr)
		if err != nil {
			fatal(err)
		}
		bot, err := botclient.New(botclient.Config{
			Name:    fmt.Sprintf("bot-%02d", i),
			Conn:    conn,
			Server:  srv,
			Map:     m,
			FrameMs: *frameMs,
			Seed:    int64(i + 1),
			Match:   *matchName,
		})
		if err != nil {
			fatal(err)
		}
		if err := bot.Connect(); err != nil {
			fatal(fmt.Errorf("bot %d: %w", i, err))
		}
		bots = append(bots, bot)
	}
	fmt.Printf("qbot: %d bots connected to %s, playing for %s\n", len(bots), *serverAddr, *dur)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, b := range bots {
		wg.Add(1)
		go func(b *botclient.Bot) {
			defer wg.Done()
			b.Run(stop)
		}(b)
	}
	time.Sleep(*dur)
	close(stop)
	wg.Wait()

	var agg metrics.ResponseStats
	var kills, deaths, snapshots int64
	for _, b := range bots {
		agg.Merge(b.Resp)
		kills += b.Kills
		deaths += b.Deaths
		snapshots += b.Snapshots
	}
	fmt.Printf("snapshots=%d kills=%d deaths=%d\n", snapshots, kills, deaths)
	fmt.Printf("response rate: %.1f replies/s across all bots\n",
		float64(agg.Replies)/dur.Seconds())
	fmt.Printf("response time: mean %.1fms (min %.1f, max %.1f)\n",
		agg.MeanLatencyMs(), agg.Latency.Min()*1000, agg.Latency.Max()*1000)
}

func loadMap(path string, seed int64) (*worldmap.Map, error) {
	if path != "" {
		return worldmap.LoadFile(path)
	}
	cfg := worldmap.DefaultConfig()
	cfg.Seed = seed
	return worldmap.Generate(cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qbot:", err)
	os.Exit(1)
}

// Quickstart: a complete game session in one process — generate a map,
// start the sequential server on an in-memory network, connect a handful
// of automatic players, play for a few seconds, and print what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/game"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

func main() {
	// 1. A world: procedural 16-room deathmatch map plus game state.
	mapCfg := worldmap.DefaultConfig()
	mapCfg.Rows, mapCfg.Cols = 4, 4
	mapCfg.Name = "gen-dm16"
	m, err := worldmap.Generate(mapCfg)
	if err != nil {
		log.Fatal(err)
	}
	world, err := game.NewWorld(game.Config{Map: m, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// 2. An in-memory packet network and the sequential server (Threads: 0).
	net := transport.NewNetwork(transport.NetworkConfig{})
	port, err := net.Listen("server:0")
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.NewParallel(server.Config{
		World: world,
		Conns: []transport.Conn{port},
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	// 3. Eight automatic players.
	var bots []*botclient.Bot
	for i := 0; i < 8; i++ {
		conn, err := net.Listen("")
		if err != nil {
			log.Fatal(err)
		}
		bot, err := botclient.New(botclient.Config{
			Name:   fmt.Sprintf("bot-%d", i),
			Conn:   conn,
			Server: transport.MemAddr("server:0"),
			Map:    m,
			Seed:   int64(i + 1),
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := bot.Connect(); err != nil {
			log.Fatal(err)
		}
		bots = append(bots, bot)
	}
	fmt.Printf("%d bots connected to map %q (%d rooms)\n", len(bots), m.Name, len(m.Rooms))

	// 4. Play: drive each bot at 30 fps for three seconds of game time,
	// compressed (no need to sleep a full frame between steps).
	for frame := 0; frame < 90; frame++ {
		for _, b := range bots {
			b.Step()
		}
		time.Sleep(3 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	for _, b := range bots {
		b.Step() // final drain
	}
	srv.Stop()

	// 5. Results.
	fmt.Printf("server: %d frames, %d replies\n", srv.Frames(), srv.Replies())
	fmt.Printf("server time breakdown: %s\n", srv.Breakdowns()[0].String())
	for i, b := range bots {
		fmt.Printf("bot %d: %3d snapshots, moved %6.0f units, response %5.1fms avg\n",
			i, b.Snapshots, b.Moved, b.Resp.MeanLatencyMs())
	}
}

package server

import (
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// TestUDPParallelEndToEnd exercises the full stack over real loopback
// UDP sockets: parallel engine, wire protocol, bot client. It guards the
// poll semantics of transport.UDPConn (a zero-timeout drain must still
// deliver queued datagrams).
func TestUDPParallelEndToEnd(t *testing.T) {
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, _ := game.NewWorld(game.Config{Map: m, Seed: 1})
	conns := make([]transport.Conn, 2)
	for i := range conns {
		c, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Skip(err)
		}
		conns[i] = c
	}
	srv, err := NewParallel(Config{World: w, Conns: conns, Threads: 2, Strategy: locking.Optimized{}, MaxClients: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	bc, _ := transport.ListenUDP("127.0.0.1:0")
	srvAddr, _ := bc.Resolve(conns[0].LocalAddr().String())
	bot, err := botclient.New(botclient.Config{Name: "b", Conn: bc, Server: srvAddr, Map: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := bot.Connect(); err != nil {
		t.Fatal(err)
	}
	t.Logf("connected, entity %d", bot.EntityID())
	for i := 0; i < 40; i++ {
		bot.Step()
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	bot.Step()
	if bot.Snapshots == 0 {
		t.Fatalf("no snapshots; server sent %d replies", srv.Replies())
	}
}

package match

import (
	"testing"
	"time"

	"qserve/internal/game"
	"qserve/internal/protocol"
	"qserve/internal/server"
	"qserve/internal/transport"
)

// lobbyRig is a lobby over an in-memory endpoint with matches m0 and m1,
// each engine built by newEngine with mut applied to its Config.
type lobbyRig struct {
	net     *transport.Network
	lobby   *Lobby
	matches []*Match
}

func newLobbyRig(t *testing.T, mut func(*server.Config)) *lobbyRig {
	t.Helper()
	st := smallStatic(t)
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 4096})
	srvConn, err := net.Listen("srv:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Config{Workers: 2, ActiveInterval: 2 * time.Millisecond, IdleInterval: 5 * time.Millisecond})
	r := &lobbyRig{net: net, lobby: NewLobby(mgr, srvConn)}
	t.Cleanup(r.lobby.Close)
	for _, name := range []string{"m0", "m1"} {
		mt, err := r.lobby.CreateMatch(name, func(conn transport.Conn) (*server.Parallel, error) {
			w, err := game.NewWorld(game.Config{Static: st})
			if err != nil {
				return nil, err
			}
			cfg := server.Config{World: w, Conns: []transport.Conn{conn}, MaxClients: 8, Shared: mgr.Shared()}
			if mut != nil {
				mut(&cfg)
			}
			return server.NewParallel(cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		r.matches = append(r.matches, mt)
	}
	mgr.Start()
	t.Cleanup(mgr.Stop)
	return r
}

// clients reports each match's connected-client count.
func (r *lobbyRig) clients() [2]int {
	return [2]int{r.matches[0].eng.NumClients(), r.matches[1].eng.NumClients()}
}

// waitClients waits until the matches hold want clients.
func (r *lobbyRig) waitClients(t *testing.T, want [2]int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.clients() != want {
		if time.Now().After(deadline) {
			t.Fatalf("matches hold %v clients, want %v", r.clients(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// join sends a Connect naming the match and waits for its Accept.
func (r *lobbyRig) join(t *testing.T, conn transport.Conn, match string) {
	t.Helper()
	send(t, conn, &protocol.Connect{Name: "switcher", FrameMs: 33, Match: match})
	buf := make([]byte, transport.MaxDatagram)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		n, _, err := conn.Recv(buf, 100*time.Millisecond)
		if err != nil {
			continue
		}
		if msg, err := protocol.Decode(buf[:n]); err == nil {
			if _, ok := msg.(*protocol.Accept); ok {
				return
			}
		}
	}
	t.Fatalf("no Accept from %s", match)
}

func send(t *testing.T, conn transport.Conn, msg any) {
	t.Helper()
	var w protocol.Writer
	if err := protocol.Encode(&w, msg); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(transport.MemAddr("srv:0"), w.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// waitRoutes waits until the lobby's Mux holds want routes and no drop
// count. An engine unroutes a client just after it drops it from its
// table, so the client count can read 0 a moment before the route goes.
func (r *lobbyRig) waitRoutes(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		routes, drops := r.lobby.mux.Tracked()
		if routes == want && drops == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lobby mux holds %d routes and %d drop counts, want %d and none", routes, drops, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLobbyClientSwitchesMatch: a client that disconnects from m0 and
// then connects naming m1 lands in m1, because m0 unrouted it through
// its lobby port when it left. A late Unroute behind m0's port (a reap
// that lost the race) leaves the client's route to m1 alone, and once
// the client leaves m1 too the lobby's Mux tracks nothing.
func TestLobbyClientSwitchesMatch(t *testing.T) {
	r := newLobbyRig(t, nil)
	conn, err := r.net.Listen("switcher:0")
	if err != nil {
		t.Fatal(err)
	}
	r.join(t, conn, "m0")
	r.waitClients(t, [2]int{1, 0})
	send(t, conn, &protocol.Disconnect{})
	r.waitClients(t, [2]int{0, 0})
	r.waitRoutes(t, 0)

	r.join(t, conn, "m1")
	r.waitClients(t, [2]int{0, 1})
	r.matches[0].port.Unroute(transport.KeyOf(conn.LocalAddr()))
	r.waitRoutes(t, 1) // m0's Unroute did not take m1's route

	send(t, conn, &protocol.Disconnect{})
	r.waitClients(t, [2]int{0, 0})
	r.waitRoutes(t, 0)
	if got := r.lobby.Routed(); got != 2 {
		t.Errorf("lobby admitted %d connects, want 2 (one per match)", got)
	}
}

// TestLobbyReapUnroutes: a client reaped by the stale-client timeout is
// unrouted like one that disconnects, so the lobby's Mux tracks nothing
// once it is gone and its next Connect reaches the lobby again.
func TestLobbyReapUnroutes(t *testing.T) {
	r := newLobbyRig(t, func(cfg *server.Config) { cfg.ClientTimeout = 50 * time.Millisecond })
	conn, err := r.net.Listen("silent:0")
	if err != nil {
		t.Fatal(err)
	}
	r.join(t, conn, "m0")
	r.waitClients(t, [2]int{0, 0}) // silent: reaped
	r.waitRoutes(t, 0)

	r.join(t, conn, "m1")
	if got := r.lobby.Routed(); got != 2 {
		t.Errorf("lobby admitted %d connects, want 2 (the second after the reap)", got)
	}
}

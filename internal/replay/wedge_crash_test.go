package replay

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qserve/internal/botclient"
	"qserve/internal/checkpoint"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// wedgeChildEnv names the directory a re-executed TestWedgeCrashRecovers
// child writes its checkpoints and redo log to; set only in the child.
const wedgeChildEnv = "QSERVE_WEDGE_CRASH_DIR"

const (
	wedgeThreads = 2
	wedgeBots    = 4
)

// TestWedgeCrashRecovers is the crash-only wedge path end to end: a
// parallel server whose worker wedges forever must exit with
// server.WedgeExitCode and leave a checkpoint plus redo log that a
// restart recovers from. The server runs in a re-executed copy of this
// test binary, since the wedge ends its process: 2 threads, a stream
// recorder, a checkpoint writer and 4 bots; after about 300 frames a
// PreExec seam blocks forever, past a 100 ms watchdog deadline. The
// parent requires the exit status within 5 s, the wedge record on
// stderr, and a recovery that parks all 4 clients and that NewParallel
// accepts.
func TestWedgeCrashRecovers(t *testing.T) {
	if dir := os.Getenv(wedgeChildEnv); dir != "" {
		runWedgeChild(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWedgeCrashRecovers$", "-test.count=1")
	cmd.Env = append(os.Environ(), wedgeChildEnv+"="+dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("wedged server still running after 5 s; stderr:\n%s", head(stderr.String()))
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != server.WedgeExitCode {
		t.Fatalf("child exited with %v, want status %d; stderr:\n%s",
			err, server.WedgeExitCode, head(stderr.String()))
	}
	if !strings.Contains(stderr.String(), "server: watchdog: thread ") {
		t.Fatalf("no wedge record on stderr:\n%s", head(stderr.String()))
	}

	rv, err := Recover(dir, filepath.Join(dir, "session.qrl"))
	if err != nil {
		t.Fatal(err)
	}
	if rv.Checkpoint.Frame == 0 {
		t.Fatal("the crashed server captured no checkpoint")
	}
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 64})
	conns := make([]transport.Conn, wedgeThreads)
	for i := range conns {
		if conns[i], err = net.Listen(fmt.Sprintf("srv:%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	par, err := server.NewParallel(server.Config{
		World:   rv.World,
		Conns:   conns,
		Threads: wedgeThreads,
		Restore: rv.RestoreState(0),
	})
	if err != nil {
		t.Fatalf("restart refused the recovery: %v", err)
	}
	if n := par.NumClients(); n != wedgeBots {
		t.Fatalf("restart parked %d clients, want %d", n, wedgeBots)
	}
	t.Logf("recovered frame %d from checkpoint %d (+%d tail items)",
		rv.Frames, rv.Checkpoint.Frame, rv.TailItems)
}

// runWedgeChild is the re-executed half: it serves until the seam wedges
// a worker and the watchdog ends the process. Returning at all is a
// failure.
func runWedgeChild(t *testing.T, dir string) {
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := game.NewWorld(game.Config{Map: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStreamRecorder(filepath.Join(dir, "session.qrl"), m, 42)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := checkpoint.NewWriter(checkpoint.Config{
		Dir: dir, WorldSeed: 42, Map: m, Interval: 50, DeltaEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.NetworkConfig{QueueLen: 1024})
	conns := make([]transport.Conn, wedgeThreads)
	for i := range conns {
		if conns[i], err = net.Listen(fmt.Sprintf("srv:%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var armed atomic.Bool
	cfg := server.Config{
		World:            w,
		Conns:            conns,
		Threads:          wedgeThreads,
		Strategy:         locking.Optimized{},
		WatchdogDeadline: 100 * time.Millisecond,
		Record:           st,
		Checkpoint:       wr,
	}
	cfg.Hooks.PreExec = func(int, uint16) {
		if armed.Load() {
			select {} // wedged for good
		}
	}
	par, err := server.NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par.Start()

	bots := make([]*botclient.Bot, wedgeBots)
	for i := range bots {
		bc, err := net.Listen(fmt.Sprintf("bot:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		bots[i], err = botclient.New(botclient.Config{
			Name: fmt.Sprintf("wedge-%d", i), Conn: bc,
			Server: transport.MemAddr("srv:0"), Map: m, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := bots[i].Connect(); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if par.Frames() >= 300 {
			armed.Store(true)
		}
		for _, b := range bots {
			b.Step()
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("still serving at frame %d: the wedge did not end the process", par.Frames())
}

// head returns the start of a child's stderr: the wedge record and the
// top of the goroutine dump, without the whole dump.
func head(s string) string {
	const n = 4096
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

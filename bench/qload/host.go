//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"qserve/internal/balance"
	"qserve/internal/game"
	"qserve/internal/locking"
	"qserve/internal/match"
	"qserve/internal/metrics"
	"qserve/internal/server"
	"qserve/internal/transport"
	"qserve/internal/worldmap"
)

// host is a running server the generator can aim at: the qserved child
// process of a measured run, or the same engine inside this process for
// the traced run.
type host struct {
	addr string // base address clients connect to
	pid  int    // 0 when in-process
	// stop shuts the server down and returns what its public accessors
	// report afterwards (nil for a child: it is measured from outside).
	stop func() *engineReport
}

// engineReport is what an in-process engine's accessors say once it has
// stopped; Breakdowns must not be read before.
type engineReport struct {
	threads    []metrics.Breakdown
	frames     uint64
	durationS  float64
	migrations int64
	matches    *match.Aggregate // match manager only
}

// children tracks live qserved processes so that every way out of the
// benchmark — return, error, panic, signal — can reap them.
type children struct {
	mu   sync.Mutex
	live map[*exec.Cmd]struct{}
}

func (cs *children) add(c *exec.Cmd) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.live == nil {
		cs.live = map[*exec.Cmd]struct{}{}
	}
	cs.live[c] = struct{}{}
}

func (cs *children) remove(c *exec.Cmd) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.live, c)
}

// killAll is the last resort: SIGKILL whatever is still registered.
func (cs *children) killAll() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for c := range cs.live {
		_ = c.Process.Kill() // already gone is fine
		delete(cs.live, c)
	}
}

var portLine = regexp.MustCompile(`(?:thread 0 port:|behind lobby) (127\.0\.0\.1:\d+)`)

// startChild runs the unmodified qserved binary on an ephemeral loopback
// port and waits for the start-up line that names it.
func startChild(cs *children, bin string, args []string) (*host, error) {
	cmd := exec.Command(bin, args...)
	// If the benchmark dies without running its defers the kernel still
	// takes the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("qserved stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start qserved: %w", err)
	}
	cs.add(cmd)

	var once sync.Once
	reap := func() {
		once.Do(func() {
			_ = cmd.Process.Signal(syscall.SIGINT) // already exited is fine
			done := make(chan struct{})
			go func() {
				_ = cmd.Wait() // exit status of a signalled server carries nothing
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				_ = cmd.Process.Kill()
				<-done
			}
			cs.remove(cmd)
		})
	}

	addrCh := make(chan string, 1)
	go func() {
		// Keeps reading to EOF so the server never blocks on a full pipe.
		rd := bufio.NewReader(out)
		sent := false
		for {
			line, err := rd.ReadString('\n')
			if m := portLine.FindStringSubmatch(line); m != nil && !sent {
				addrCh <- m[1]
				sent = true
			}
			if err != nil {
				if !sent {
					close(addrCh)
				}
				return
			}
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			reap()
			return nil, fmt.Errorf("qserved exited before printing its port")
		}
		return &host{addr: addr, pid: cmd.Process.Pid, stop: func() *engineReport { reap(); return nil }}, nil
	case <-time.After(20 * time.Second):
		reap()
		return nil, fmt.Errorf("qserved printed no port within 20s")
	}
}

// startInProcess hosts the workload's engine in this process, wired as
// cmd/qserved wires it, on a real loopback UDP socket.
func startInProcess(wl *workload, m *worldmap.Map) (*host, error) {
	if wl.matches > 0 {
		return startMatchesInProcess(wl, m)
	}
	world, err := game.NewWorld(game.Config{Map: m, Seed: mapSeed})
	if err != nil {
		return nil, err
	}
	n := wl.threads
	if n < 1 {
		n = 1
	}
	conns := make([]transport.Conn, n)
	for i := range conns {
		if conns[i], err = transport.ListenUDP("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	cfg := server.Config{
		World:      world,
		Conns:      conns,
		Threads:    wl.threads,
		Strategy:   locking.Conservative{},
		MaxClients: wl.maxClients,
		Stealing:   wl.steal,
	}
	if wl.locking == "optimized" {
		cfg.Strategy = locking.Optimized{}
	}
	if wl.balance {
		cfg.Balance = balance.Policy{Enabled: true}
	}
	var eng server.Engine
	var par *server.Parallel
	if wl.threads <= 0 {
		eng, err = server.NewSequential(cfg)
	} else {
		par, err = server.NewParallel(cfg)
		eng = par
	}
	if err != nil {
		return nil, err
	}
	eng.Start()
	return &host{
		addr: conns[0].LocalAddr().String(),
		stop: func() *engineReport {
			eng.Stop()
			for _, c := range conns {
				c.Close()
			}
			rep := &engineReport{
				threads: eng.Breakdowns(), frames: eng.Frames(), durationS: eng.Duration().Seconds(),
			}
			if par != nil {
				rep.migrations = par.Migrations()
			}
			return rep
		},
	}, nil
}

func startMatchesInProcess(wl *workload, m *worldmap.Map) (*host, error) {
	conn, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mgr := match.NewManager(match.Config{})
	lobby := match.NewLobby(mgr, conn)
	for i := 0; i < wl.matches; i++ {
		_, err := lobby.CreateMatch(fmt.Sprintf("m%d", i), func(c transport.Conn) (*server.Sequential, error) {
			w, err := game.NewWorld(game.Config{Map: m, Seed: mapSeed})
			if err != nil {
				return nil, err
			}
			return server.NewSequential(server.Config{
				World: w, Conns: []transport.Conn{c}, MaxClients: wl.maxClients, Shared: mgr.Shared(),
			})
		})
		if err != nil {
			lobby.Close()
			conn.Close()
			return nil, err
		}
	}
	mgr.Start()
	start := time.Now()
	return &host{
		addr: conn.LocalAddr().String(),
		stop: func() *engineReport {
			lobby.Close()
			mgr.Stop()
			conn.Close()
			ag := mgr.AggregateStats()
			return &engineReport{
				threads: []metrics.Breakdown{ag.Breakdown}, frames: ag.Frames,
				durationS: time.Since(start).Seconds(), matches: &ag,
			}
		},
	}, nil
}

// buildServer compiles cmd/qserved into bench/out once per benchmark run
// and reports how long that took; it is not part of setup_s.
func buildServer(root, outDir string) (bin string, seconds float64, err error) {
	bin = filepath.Join(outDir, "qserved")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/qserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/qserved: %w\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// taskCPUNs sums the on-CPU time of every thread of a process from
// /proc/<pid>/task/*/schedstat. utime+stime are sampled at the scheduler
// tick and under-count a server that sleeps and wakes thousands of times
// a second; schedstat is exact.
func taskCPUNs(pid int) (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat of %d/%s: %w", pid, e.Name(), err)
		}
		total += ns
	}
	return total, nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

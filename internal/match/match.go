// Package match runs many concurrent game instances in one process on a
// shared worker pool (DESIGN.md §13).
//
// The paper parallelizes one match across threads; real deployments
// reach large populations with many 16–160 player matches per box. A
// Manager owns M sequential server engines (server.Parallel at Threads:
// 0) in stepped mode (no per-match goroutines) and multiplexes their frames over a GOMAXPROCS-sized
// worker pool with deadline-ordered dispatch: active matches get their
// frame cadence, idle matches coalesce onto a slow tick and hold no warm
// buffers (server.SharedBufs). A Lobby routes client datagrams to their
// match through a transport.Mux, assigning new connections by the
// Connect datagram's Match field.
package match

import (
	"fmt"
	"sync"
	"time"

	"qserve/internal/metrics"
	"qserve/internal/server"
	"qserve/internal/transport"
)

// Config parameterizes a Manager.
type Config struct {
	// Workers is the scheduler's worker-goroutine count; default
	// GOMAXPROCS. Each worker pops the earliest-deadline due match,
	// steps one frame, and requeues it.
	Workers int
	// ActiveInterval is the frame cadence of a match with connected
	// clients or inbound traffic. Default 15ms (~ the paper's 30–40ms
	// client frame, halved so two client commands never wait a full
	// server frame).
	ActiveInterval time.Duration
	// IdleInterval is the tick cadence of an empty match: world physics
	// still advances (doors close, items respawn) but nothing else runs.
	// Default 250ms.
	IdleInterval time.Duration
	// Shared is the cross-instance frame-scratch pool threaded into
	// every match's engine Config by the caller; built here when nil so
	// Manager-created deployments share one by construction.
	Shared *server.SharedBufs
	// Hooks are test seams; zero in production.
	Hooks Hooks
}

// Hooks exposes fault-injection seams for the isolation tests.
type Hooks struct {
	// PreStep runs on the scheduler worker right before a match's frame
	// steps. The eviction tests use it to panic a chosen match at a
	// known point, proving a crashing match cannot take its neighbors
	// down.
	PreStep func(name string)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.ActiveInterval <= 0 {
		c.ActiveInterval = 15 * time.Millisecond
	}
	if c.IdleInterval <= 0 {
		c.IdleInterval = 250 * time.Millisecond
	}
	if c.Shared == nil {
		c.Shared = server.NewSharedBufs()
	}
}

// Match is one scheduled game instance.
type Match struct {
	name string
	eng  *server.Parallel
	port *transport.MuxPort // the lobby's port for this match; nil when not lobby-routed

	// Scheduler state, all guarded by the Manager's mutex. A match is in
	// exactly one of three places: the deadline heap (heapIdx >= 0), a
	// worker's hands (running), or evicted. The mutex passage between a
	// worker requeueing the match and the next worker popping it is the
	// happens-before edge that lets consecutive frames of one match run
	// on different workers without further synchronization.
	heapIdx  int
	deadline time.Time
	running  bool
	evicted  bool
	poked    bool // deadline pulled to "now" while the match was running
	active   bool // last step's verdict: clients connected or traffic seen

	frames   uint64
	stepHist metrics.LatencyHist // frame step duration
	lateHist metrics.LatencyHist // dispatch lateness past the deadline
}

// Name returns the match's lobby-visible name.
func (mt *Match) Name() string { return mt.name }

// Engine returns the match's engine. Engine state (breakdowns, client
// counts) must only be read while the match cannot be stepping — in
// practice, after Manager.Stop.
func (mt *Match) Engine() *server.Parallel { return mt.eng }

// Manager owns the match set and the shared frame scheduler.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	heap      []*Match
	byName    map[string]*Match
	all       []*Match // insertion order, evicted matches included
	evictions int
	stopped   bool

	kick  chan struct{}
	stopc chan struct{}
	wg    sync.WaitGroup
}

// NewManager builds a manager; call Start to launch the workers.
func NewManager(cfg Config) *Manager {
	cfg.fill()
	return &Manager{
		cfg:    cfg,
		byName: make(map[string]*Match),
		kick:   make(chan struct{}, cfg.Workers),
		stopc:  make(chan struct{}),
	}
}

// Shared returns the cross-instance buffer pool every match engine's
// Config.Shared must point at.
func (m *Manager) Shared() *server.SharedBufs { return m.cfg.Shared }

// Add registers an engine as a named match and schedules its first
// frame immediately. The engine must have been built with this
// manager's Shared pool and must not have been started; Add puts it in
// stepped mode.
func (m *Manager) Add(name string, eng *server.Parallel) (*Match, error) {
	return m.add(name, eng, nil)
}

func (m *Manager) add(name string, eng *server.Parallel, port *transport.MuxPort) (*Match, error) {
	mt := &Match{name: name, eng: eng, port: port, heapIdx: -1}
	eng.StartStepped()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil, fmt.Errorf("match: manager stopped")
	}
	if _, dup := m.byName[name]; dup {
		return nil, fmt.Errorf("match: duplicate match %q", name)
	}
	m.byName[name] = mt
	m.all = append(m.all, mt)
	mt.deadline = time.Now()
	m.heapPush(mt)
	m.kickLocked()
	return mt, nil
}

// Start launches the scheduler workers. Deadlines of matches admitted
// before Start are re-based to now and staggered across one idle
// interval: wall time spent building a large fleet must not count as
// dispatch lateness, and a synchronized idle-tick herd would otherwise
// recur every interval.
func (m *Manager) Start() {
	m.mu.Lock()
	if n := len(m.heap); n > 0 {
		now := time.Now()
		// Deadlines increase with heap-array index, so every parent still
		// precedes its children: the array stays a valid min-heap.
		for i, mt := range m.heap {
			mt.deadline = now.Add(m.cfg.IdleInterval * time.Duration(i) / time.Duration(n))
		}
	}
	m.mu.Unlock()
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// Stop halts the scheduler and stops every engine. After Stop returns,
// no match is stepping and engine state is safe to read.
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stopc)
	m.wg.Wait()
	for _, mt := range m.snapshotAll() {
		mt.eng.Stop()
	}
}

// Len returns the number of live (non-evicted) matches.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byName)
}

// Evictions returns how many matches were evicted after a panic.
func (m *Manager) Evictions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// Poke pulls a match's next frame to "now" — the lobby calls it when it
// routes a Connect so admission doesn't wait out an idle tick.
func (m *Manager) Poke(name string) {
	m.mu.Lock()
	mt := m.byName[name]
	if mt == nil {
		m.mu.Unlock()
		return
	}
	if mt.running {
		mt.poked = true // requeue will schedule it immediately
	} else if mt.heapIdx >= 0 {
		mt.deadline = time.Now()
		m.heapFix(mt)
		m.kickLocked()
	}
	m.mu.Unlock()
}

// lookup returns the named live match (lobby routing).
func (m *Manager) lookup(name string) *Match {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byName[name]
}

func (m *Manager) snapshotAll() []*Match {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Match, len(m.all))
	copy(out, m.all)
	return out
}

// kickLocked wakes one sleeping worker; callers hold m.mu.
func (m *Manager) kickLocked() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// evict removes a panicked match from service: it is never requeued, its
// name is freed for lookups, and its engine is left untouched for post
// mortem inspection. Called by the stepping worker with m.mu held.
func (m *Manager) evictLocked(mt *Match) {
	mt.evicted = true
	delete(m.byName, mt.name)
	m.evictions++
}

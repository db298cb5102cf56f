// Package locking implements the paper's region-based synchronization
// over the areanode tree (§3.3) and its game-knowledge optimizations
// (§4.3):
//
//   - a move locks the leaf areanodes its bounding box touches, always in
//     ascending node order (deadlock freedom by global ordering);
//   - parent areanodes are locked only transiently, around scans of their
//     object lists, "an artifact of the server design";
//   - the baseline Conservative strategy locks a slightly enlarged region
//     for short-range interactions and the entire map for long-range
//     interactions;
//   - the Optimized strategy replaces whole-map locking with expanded
//     bounding-box locks (objects finished later by world physics) and
//     directional bounding-box locks (objects fully simulated during
//     request processing).
//
// The package is engine-agnostic: a Provider supplies the per-node lock
// primitive, which is a real sync.Mutex array in the live server and a
// virtual-time lock in the simulated machine, so both engines execute the
// identical protocol.
package locking

import (
	"math"

	"qserve/internal/areanode"
	"qserve/internal/geom"
)

// Kind classifies the interaction a lock region covers, after the paper's
// two-component breakdown of move execution.
type Kind int

const (
	// KindShortRange covers player figure motion: the move's own
	// bounding box.
	KindShortRange Kind = iota
	// KindLongRangeDeferred covers objects "partly simulated during
	// request processing and then ... completed during the world physics
	// processing phase" (the paper's first long-range type). Optimized
	// locking uses an expanded bounding box sized by the object's maximum
	// interaction range during request processing.
	KindLongRangeDeferred
	// KindLongRangeImmediate covers objects "fully simulated during
	// request processing" (the second type). Optimized locking uses a
	// directional bounding box from the player to the end of the world.
	KindLongRangeImmediate
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindShortRange:
		return "short-range"
	case KindLongRangeDeferred:
		return "long-range-deferred"
	case KindLongRangeImmediate:
		return "long-range-immediate"
	default:
		return "unknown"
	}
}

// Request carries the geometric facts a strategy needs to size a lock
// region.
type Request struct {
	// Start is the player's position when the command executes.
	Start geom.Vec3
	// MoveBox bounds the player's possible motion this move (§2.3 step 1).
	MoveBox geom.AABB
	// AimDir is the unit fire direction for long-range interactions.
	AimDir geom.Vec3
	// Range is the object-dependent maximum interaction distance during
	// request processing, used by expanded locking.
	Range float64
}

// Strategy maps a request component to the world region that must be
// locked before simulating it.
type Strategy interface {
	// Name identifies the strategy in reports ("conservative",
	// "optimized").
	Name() string
	// Region returns the box to lock. world is the full map volume.
	Region(world geom.AABB, req Request, kind Kind) geom.AABB
}

// shortRangeMargin enlarges short-range regions slightly beyond the move
// box: the paper's baseline is "somewhat conservative ... we lock a
// slightly larger region than necessary for short-range interactions".
const shortRangeMargin = 16.0

// Conservative is the paper's baseline scheme: enlarged short-range
// regions, whole-map locking for every long-range interaction.
type Conservative struct{}

// Name implements Strategy.
func (Conservative) Name() string { return "conservative" }

// Region implements Strategy.
func (Conservative) Region(world geom.AABB, req Request, kind Kind) geom.AABB {
	if kind == KindShortRange {
		return req.MoveBox.Expand(shortRangeMargin)
	}
	return world
}

// Optimized is the §4.3 scheme using game-specific knowledge for
// long-range interactions.
type Optimized struct{}

// Name implements Strategy.
func (Optimized) Name() string { return "optimized" }

// Region implements Strategy.
func (Optimized) Region(world geom.AABB, req Request, kind Kind) geom.AABB {
	switch kind {
	case KindShortRange:
		return req.MoveBox.Expand(shortRangeMargin)
	case KindLongRangeDeferred:
		// Expanded bounding-box locking: "we increase the extent of the
		// region to lock outwards in every direction by an amount that
		// depends on the object."
		r := req.Range
		if r <= 0 {
			r = shortRangeMargin
		}
		return clampToWorld(req.MoveBox.Expand(r), world)
	default:
		// Directional bounding-box locking: "we extend a bounding-box
		// from the player to the end of the world in the direction the
		// object is being simulated."
		return clampToWorld(DirectionalBox(world, req.Start, req.AimDir, shortRangeMargin), world)
	}
}

// DirectionalBox builds the box from start to the world boundary along
// dir, expanded by margin in every direction. A zero direction degrades
// to the whole world (safe fallback).
func DirectionalBox(world geom.AABB, start, dir geom.Vec3, margin float64) geom.AABB {
	d := dir.Norm()
	if d.IsZero() {
		return world
	}
	// Distance to exit the world along d.
	exitT := math.Inf(1)
	for i := 0; i < 3; i++ {
		dv := d.Axis(i)
		if dv == 0 {
			continue
		}
		var boundary float64
		if dv > 0 {
			boundary = world.Max.Axis(i)
		} else {
			boundary = world.Min.Axis(i)
		}
		t := (boundary - start.Axis(i)) / dv
		if t >= 0 && t < exitT {
			exitT = t
		}
	}
	if math.IsInf(exitT, 1) {
		return world
	}
	end := start.MA(exitT, d)
	return geom.Box(start, end).Expand(margin)
}

func clampToWorld(b, world geom.AABB) geom.AABB {
	x := b.Intersection(world)
	if !x.IsValid() {
		return world
	}
	return x
}

// Provider supplies blocking per-areanode lock primitives. Node indices
// are areanode tree node indices. Implementations attribute wait time
// themselves (real time in the live engine, virtual time in the
// simulator).
type Provider interface {
	LockNode(node int32)
	UnlockNode(node int32)
}

// TryProvider extends Provider with a non-blocking acquisition attempt.
// Work-stealing execution probes it through RegionLocker.TryAcquire so a
// thief can park a request whose region is contended instead of queueing
// behind the holder.
type TryProvider interface {
	Provider
	// TryLockNode acquires node if it is free and reports success. It
	// never blocks.
	TryLockNode(node int32) bool
}

// AcquireStats counts lock protocol operations for one request, feeding
// the Fig. 7 analyses.
type AcquireStats struct {
	LeafLockOps    int // leaf lock acquisitions, including re-locks across components
	DistinctLeaves int // distinct leaves locked by this request
	ParentLockOps  int // transient parent (interior node) lock acquisitions
}

// Add accumulates o into s.
func (s *AcquireStats) Add(o AcquireStats) {
	s.LeafLockOps += o.LeafLockOps
	s.DistinctLeaves += o.DistinctLeaves
	s.ParentLockOps += o.ParentLockOps
}

// RegionLocker executes the locking protocol for one server thread. It is
// not itself safe for concurrent use: each server thread owns one.
type RegionLocker struct {
	Tree     *areanode.Tree
	Provider Provider

	leafBuf []int32
	// held records every node currently locked through this locker, in
	// acquisition order. Game code releases guards explicitly (not always
	// via defer), so a panic mid-move can strand locks; the server's
	// panic-containment path calls ReleaseAll to unwind them instead of
	// deadlocking the next thread that touches the region.
	held []int32

	// guardStats is the stats sink the parent guard counts into; the
	// locker is single-threaded, so swapping it per ParentGuard call is
	// safe.
	guardStats *AcquireStats
}

// popHeld removes the most recent occurrence of node from the held log.
func (rl *RegionLocker) popHeld(node int32) {
	for i := len(rl.held) - 1; i >= 0; i-- {
		if rl.held[i] == node {
			rl.held = append(rl.held[:i], rl.held[i+1:]...)
			return
		}
	}
}

// ReleaseAll force-unlocks every node still held through this locker, in
// reverse acquisition order, and returns how many it released. It is the
// panic-recovery escape hatch: after a recover() the thread's guards may
// never get their Release calls, and this restores the provider to a
// clean state. Zero in normal operation.
func (rl *RegionLocker) ReleaseAll() int {
	n := len(rl.held)
	for i := n - 1; i >= 0; i-- {
		rl.Provider.UnlockNode(rl.held[i])
	}
	rl.held = rl.held[:0]
	return n
}

// Guard represents a held set of leaf locks. Release unlocks in reverse
// acquisition order.
type Guard struct {
	rl     *RegionLocker
	leaves []int32
	region geom.AABB
}

// Acquire locks, in ascending node order, every leaf whose volume touches
// region, and returns the guard plus the count of leaves locked. The
// ascending order is the global order that makes the protocol
// deadlock-free across threads.
func (rl *RegionLocker) Acquire(region geom.AABB, stats *AcquireStats) Guard {
	rl.leafBuf = rl.Tree.LeavesTouching(region, rl.leafBuf[:0])
	for _, ni := range rl.leafBuf {
		rl.Provider.LockNode(ni)
		rl.held = append(rl.held, ni)
	}
	if stats != nil {
		stats.LeafLockOps += len(rl.leafBuf)
		stats.DistinctLeaves = len(rl.leafBuf)
	}
	leaves := append([]int32(nil), rl.leafBuf...)
	return Guard{rl: rl, leaves: leaves, region: region}
}

// TryAcquire attempts Acquire without blocking. It probes each leaf in
// the same ascending node order; on the first busy leaf it unlocks
// everything taken so far (in reverse order) and reports failure, leaving
// the provider exactly as it found it. It requires a TryProvider; with a
// blocking-only provider it degrades to Acquire (ok is always true), so
// callers can enable stealing unconditionally.
func (rl *RegionLocker) TryAcquire(region geom.AABB, stats *AcquireStats) (Guard, bool) {
	tp, hasTry := rl.Provider.(TryProvider)
	if !hasTry {
		return rl.Acquire(region, stats), true
	}
	rl.leafBuf = rl.Tree.LeavesTouching(region, rl.leafBuf[:0])
	for i, ni := range rl.leafBuf {
		if tp.TryLockNode(ni) {
			rl.held = append(rl.held, ni)
			continue
		}
		// Conflict: roll back in reverse acquisition order.
		for j := i - 1; j >= 0; j-- {
			rl.Provider.UnlockNode(rl.leafBuf[j])
			rl.popHeld(rl.leafBuf[j])
		}
		if stats != nil {
			// Count the probe work that was wasted: each leaf we touched,
			// plus the one that refused us.
			stats.LeafLockOps += i + 1
		}
		return Guard{}, false
	}
	if stats != nil {
		stats.LeafLockOps += len(rl.leafBuf)
		stats.DistinctLeaves = len(rl.leafBuf)
	}
	leaves := append([]int32(nil), rl.leafBuf...)
	return Guard{rl: rl, leaves: leaves, region: region}, true
}

// Leaves returns the node indices of the held leaves (ascending).
func (g *Guard) Leaves() []int32 { return g.leaves }

// Region returns the region the guard covers.
func (g *Guard) Region() geom.AABB { return g.region }

// Covers reports whether the guard's leaf set covers box, i.e. every leaf
// the box touches is held. Game code uses it to assert queries stay
// within the locked region.
func (g *Guard) Covers(box geom.AABB) bool {
	needed := g.rl.Tree.LeavesTouching(box, nil)
	held := make(map[int32]bool, len(g.leaves))
	for _, ni := range g.leaves {
		held[ni] = true
	}
	for _, ni := range needed {
		if !held[ni] {
			return false
		}
	}
	return true
}

// Release unlocks all held leaves in reverse order. Releasing an empty or
// already-released guard is a no-op.
func (g *Guard) Release() {
	for i := len(g.leaves) - 1; i >= 0; i-- {
		g.rl.Provider.UnlockNode(g.leaves[i])
		g.rl.popHeld(g.leaves[i])
	}
	g.leaves = nil
}

// ParentGuard returns an areanode.NodeGuard that transiently locks
// interior nodes around their list scans — the paper's parent areanode
// locking — while scanning leaf lists directly (their locks are already
// held via Acquire). Since only one parent areanode is locked at a time,
// "there are no deadlock issues when locking parent areanodes".
func (rl *RegionLocker) ParentGuard(stats *AcquireStats) areanode.NodeGuard {
	rl.guardStats = stats
	return (*parentGuard)(rl)
}

// parentGuard is a RegionLocker seen as an areanode.NodeGuard. Handing
// one out is a pointer conversion, so it allocates nothing. The tree
// calls Exit even when the scan panics, which releases the interior node
// (and removes it from the held log) before any ReleaseAll.
type parentGuard RegionLocker

// Enter locks an interior node; a leaf is already held via Acquire.
func (g *parentGuard) Enter(node int32, isLeaf bool) {
	if isLeaf {
		return
	}
	rl := (*RegionLocker)(g)
	rl.Provider.LockNode(node)
	rl.held = append(rl.held, node)
	if s := rl.guardStats; s != nil {
		s.ParentLockOps++
	}
}

// Exit unlocks what Enter locked.
func (g *parentGuard) Exit(node int32, isLeaf bool) {
	if isLeaf {
		return
	}
	rl := (*RegionLocker)(g)
	rl.Provider.UnlockNode(node)
	rl.popHeld(node)
}

// MutexProvider is the live-engine Provider: one mutex per areanode.
type MutexProvider struct {
	locks []nodeMutex
}

// nodeMutex pads to a cache line to avoid false sharing between adjacent
// node locks under contention.
type nodeMutex struct {
	mu chanMutex
	_  [40]byte
}

// chanMutex is a simple channel-based mutex; unlike sync.Mutex it lets
// the live engine instrument wait time without extra allocation, and its
// FIFO-ish queueing matches the simulator's lock model more closely.
type chanMutex struct {
	ch chan struct{}
}

func (m *chanMutex) init() { m.ch = make(chan struct{}, 1) }

func (m *chanMutex) Lock()   { m.ch <- struct{}{} }
func (m *chanMutex) Unlock() { <-m.ch }

// TryLock acquires the mutex if free and reports success.
func (m *chanMutex) TryLock() bool {
	select {
	case m.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

// NewMutexProvider creates a provider with one lock per tree node.
func NewMutexProvider(numNodes int) *MutexProvider {
	p := &MutexProvider{locks: make([]nodeMutex, numNodes)}
	for i := range p.locks {
		p.locks[i].mu.init()
	}
	return p
}

// LockNode implements Provider.
func (p *MutexProvider) LockNode(node int32) { p.locks[node].mu.Lock() }

// UnlockNode implements Provider.
func (p *MutexProvider) UnlockNode(node int32) { p.locks[node].mu.Unlock() }

// TryLockNode implements TryProvider.
func (p *MutexProvider) TryLockNode(node int32) bool { return p.locks[node].mu.TryLock() }

// NopProvider performs no locking; the sequential server uses it so the
// same game code runs lock-free single-threaded.
type NopProvider struct{}

// LockNode implements Provider.
func (NopProvider) LockNode(int32) {}

// UnlockNode implements Provider.
func (NopProvider) UnlockNode(int32) {}

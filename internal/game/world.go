// Package game implements the rules of the first-person action game the
// server hosts: the move-command execution pipeline of the paper's §2.3
// (motion bounding boxes, areanode traversal, short- and long-range
// interactions), the world-physics phase, combat, pickups, respawns, and
// per-client snapshot construction with visibility filtering.
//
// The package is engine-neutral. It performs no timing and no real
// locking of its own: an engine passes a LockContext whose provider is a
// mutex array (live server), a virtual-time lock set (simulated machine),
// or a no-op (sequential server). Every operation reports work counters
// from which the simulated machine charges virtual time.
package game

import (
	"fmt"
	"sync"

	"qserve/internal/areanode"
	"qserve/internal/collide"
	"qserve/internal/entity"
	"qserve/internal/geom"
	"qserve/internal/locking"
	"qserve/internal/physics"
	"qserve/internal/worldmap"
)

// Config parameterizes a game world.
type Config struct {
	Map *worldmap.Map
	// Static, when set, is the immutable half the world is built over —
	// typically shared by every match on the same map. Map may then be
	// left nil; if both are set they must agree. When nil, NewWorld
	// builds a private Static from Map.
	Static        *Static
	AreanodeDepth int // leaf depth; areanode.DefaultDepth when zero
	MaxEntities   int // entity table capacity; 2048 when zero
	Physics       physics.Params
	// Seed is accepted for configuration compatibility but currently
	// unused: gameplay is deterministic by design (see World.Time's
	// determinism note) and seeds only the map generator upstream.
	Seed int64
}

// Static is the immutable half of a world: the map, its collision tree,
// and the visibility index's room tables. It is built once per map and
// read concurrently by any number of Worlds, as the paper's server loads
// its BSP map once and every thread reads it; only the entity table, the
// areanode tree and the clock are per-world.
type Static struct {
	Map     *worldmap.Map
	Collide *collide.Tree

	// Per-map tables for the frame-coherent visibility index
	// (visindex.go), derived once from the room layout. visRoomBounds[r]
	// is room r's bounds widened exactly as Map.RoomAt accepts points
	// (wall-band expansion, Z extended to the world top), so RoomID==r
	// with Origin inside visRoomBounds[r] is the "fresh room" invariant.
	// visClass[v][r] classifies room r for a viewer in room v: take
	// (room-visible, no range check), check (outside the visibility
	// matrix but close enough that the audible-range fallback could
	// still include an entity there), or skip (provably out of range).
	// Each row carries two extra tail slots so the index's overflow
	// (room unknown: always range-checked) and stale (cached room
	// disagrees with origin: full naive predicate) buckets resolve
	// through the same one-load lookup as real rooms.
	visRoomBounds []geom.AABB
	visClass      [][]uint8
}

// NewStatic derives the immutable half of a world from a (non-nil) map:
// the collision tree over its brushes and the visibility room tables.
func NewStatic(m *worldmap.Map) *Static {
	boxes := make([]geom.AABB, len(m.Brushes))
	for i, b := range m.Brushes {
		boxes[i] = b.Box
	}
	st := &Static{Map: m, Collide: collide.NewTree(boxes, m.Bounds)}
	st.buildVisTables()
	return st
}

// World owns all mutable game state: the entity table, the areanode tree,
// and the clock. The map, collision tree and visibility tables come from
// a Static, which may be shared with other worlds and is never mutated.
type World struct {
	Map *worldmap.Map
	// Collide starts as the Static's tree. It is the world's own pointer,
	// so an engine may swap in a view of it (simserver installs
	// Collide.Reference()) without reaching sibling worlds on the Static.
	Collide *collide.Tree
	Tree    *areanode.Tree
	Ents    *entity.Table
	Phys    physics.Params

	// Time is the server clock in seconds, advanced by the world-physics
	// phase at the start of each frame.
	//
	// Determinism note: gameplay is rule-driven and uses no randomness —
	// the world's evolution is a pure function of the map, the spawn/
	// connect/disconnect sequence, the committed move commands, and the
	// tick dts. internal/replay depends on this (DESIGN.md §11), and the
	// detcheck test in that package enforces it (no math/rand, no
	// time.Now in frame logic).
	Time float64

	// static is the immutable half the world was built over; the
	// visibility index reads its room tables.
	static *Static

	// spawnCursor rotates through spawn points.
	spawnCursor int

	// entMu serializes entity-table allocation when request-processing
	// threads spawn projectiles concurrently. All other table mutation
	// happens in single-threaded phases (connection handling, world
	// physics) and under the phase barriers.
	entMu sync.Mutex

	// frameIDs is RunWorldFrame's scratch copy of the active-ID index:
	// thinks free and allocate entities mid-walk, so the phase iterates a
	// snapshot of the index taken at frame start.
	frameIDs []entity.ID
}

// Viewer-room classification of a room's entity span during snapshot
// merging (see Static.visClass).
const (
	visSkip uint8 = iota
	visCheck
	visTake
	visStale
)

// NewWorld builds a world over a Static (cfg.Static, or a private one
// derived from cfg.Map): a fresh areanode tree and the initial entity
// population (items, doors and teleporter triggers).
func NewWorld(cfg Config) (*World, error) {
	st := cfg.Static
	switch {
	case st == nil && cfg.Map == nil:
		return nil, fmt.Errorf("game: config has no map")
	case st == nil:
		st = NewStatic(cfg.Map)
	case cfg.Map != nil && cfg.Map != st.Map:
		return nil, fmt.Errorf("game: config map %q is not the static world's map %q", cfg.Map.Name, st.Map.Name)
	}
	m := st.Map
	depth := cfg.AreanodeDepth
	if depth == 0 {
		depth = areanode.DefaultDepth
	}
	maxEnts := cfg.MaxEntities
	if maxEnts == 0 {
		maxEnts = 2048
	}
	if cfg.Physics == (physics.Params{}) {
		cfg.Physics = physics.DefaultParams()
	}

	w := &World{
		Map:     m,
		Collide: st.Collide,
		Tree:    areanode.NewTree(m.Bounds, depth),
		Ents:    entity.NewTable(maxEnts),
		Phys:    cfg.Physics,
		static:  st,
	}

	for i, it := range m.Items {
		e := w.Ents.Alloc(entity.ClassItem)
		if e == nil {
			return nil, fmt.Errorf("game: entity table too small for map items")
		}
		e.Origin = it.Pos
		e.Mins, e.Maxs = entity.ItemMins, entity.ItemMaxs
		e.ItemClass = it.Class
		e.ItemSpawn = i
		e.RoomID = it.RoomID
		w.link(e)
	}
	for i := range m.Doors {
		if err := w.spawnDoor(i); err != nil {
			return nil, err
		}
	}
	for _, tp := range m.Teleporters {
		e := w.Ents.Alloc(entity.ClassTeleporter)
		if e == nil {
			return nil, fmt.Errorf("game: entity table too small for teleporters")
		}
		c := tp.Trigger.Center()
		e.Origin = c
		e.Mins = tp.Trigger.Min.Sub(c)
		e.Maxs = tp.Trigger.Max.Sub(c)
		e.RoomID = m.RoomAt(c)
		// Destination is recovered through the map by trigger identity;
		// store the teleporter index in ItemSpawn for O(1) lookup.
		e.ItemSpawn = teleIndex(m, tp)
		w.link(e)
	}
	return w, nil
}

// buildVisTables derives the static room tables the visibility index
// merges with. A room pair is "check" rather than "skip" whenever any
// viewer position accepted into room v could be within visCutoff of any
// entity position accepted into room r — the box-distance lower bound
// guarantees a skipped room can never hide an entity the naive range
// check would have included.
func (st *Static) buildVisTables() {
	m := st.Map
	n := len(m.Rooms)
	if n == 0 {
		return
	}
	st.visRoomBounds = make([]geom.AABB, n)
	for r := range m.Rooms {
		b := m.Rooms[r].Bounds
		b.Max.Z = m.Bounds.Max.Z
		st.visRoomBounds[r] = b.Expand(m.WallSize)
	}
	st.visClass = make([][]uint8, n)
	stride := n + 2
	flat := make([]uint8, n*stride)
	for v := 0; v < n; v++ {
		row := flat[v*stride : (v+1)*stride]
		for r := 0; r < n; r++ {
			switch {
			case m.Visible(v, r):
				row[r] = visTake
			case boxMinDistSq(st.visRoomBounds[v], st.visRoomBounds[r]) <= visCutoff*visCutoff:
				row[r] = visCheck
			}
		}
		row[n] = visCheck   // overflow bucket: room unknown, range check
		row[n+1] = visStale // stale bucket: full naive predicate
		st.visClass[v] = row
	}
}

// boxMinDistSq returns the squared distance between the closest pair of
// points of two boxes (0 when they intersect).
func boxMinDistSq(a, b geom.AABB) float64 {
	gap := func(amin, amax, bmin, bmax float64) float64 {
		if d := bmin - amax; d > 0 {
			return d
		}
		if d := amin - bmax; d > 0 {
			return d
		}
		return 0
	}
	dx := gap(a.Min.X, a.Max.X, b.Min.X, b.Max.X)
	dy := gap(a.Min.Y, a.Max.Y, b.Min.Y, b.Max.Y)
	dz := gap(a.Min.Z, a.Max.Z, b.Min.Z, b.Max.Z)
	return dx*dx + dy*dy + dz*dz
}

func teleIndex(m *worldmap.Map, tp worldmap.Teleporter) int {
	for i := range m.Teleporters {
		if m.Teleporters[i].Trigger == tp.Trigger {
			return i
		}
	}
	return -1
}

// link (re)links an entity into the areanode tree and refreshes its room.
// Safe only in single-threaded phases (world physics, connection
// handling under a whole-bounds region lock): an entity may link at an
// interior node, whose list no region lock covers. Concurrent request
// processing must use linkGuarded.
func (w *World) link(e *entity.Entity) {
	e.Link.ID = int32(e.ID)
	e.Link.Owner = e
	w.Tree.Link(&e.Link, e.AbsBox())
	if room := w.Map.RoomAt(e.Origin); room >= 0 {
		e.RoomID = room
	}
	if e.Class == entity.ClassItem {
		e.SnapEligible = true // a linked item is in play and visible
	}
}

// unlink removes an entity from the areanode tree. Same phase
// restrictions as link; concurrent request processing uses
// unlinkGuarded.
func (w *World) unlink(e *entity.Entity) {
	w.Tree.Unlink(&e.Link)
	if e.Class == entity.ClassItem {
		e.SnapEligible = false // a taken item awaits respawn, invisible
	}
}

// linkGuarded is link for concurrent request processing: the held region
// lock covers leaf lists, but an entity crossing a division plane links
// at an interior node, whose list is shared with every mover under that
// subtree — the intrusive-list splice there must take the transient
// parent lock (the same guard CollectBox scans with).
func (w *World) linkGuarded(e *entity.Entity, lc *LockContext) {
	e.Link.ID = int32(e.ID)
	e.Link.Owner = e
	w.Tree.LinkGuarded(&e.Link, e.AbsBox(), lc.parentGuard())
	if room := w.Map.RoomAt(e.Origin); room >= 0 {
		e.RoomID = room
	}
	if e.Class == entity.ClassItem {
		e.SnapEligible = true
	}
}

// unlinkGuarded is unlink for concurrent request processing (see
// linkGuarded).
func (w *World) unlinkGuarded(e *entity.Entity, lc *LockContext) {
	w.Tree.UnlinkGuarded(&e.Link, lc.parentGuard())
	if e.Class == entity.ClassItem {
		e.SnapEligible = false
	}
}

// SpawnPlayer creates a player entity at the next spawn point. It is
// called during connection handling, which both engines serialize.
func (w *World) SpawnPlayer() (*entity.Entity, error) {
	e := w.Ents.Alloc(entity.ClassPlayer)
	if e == nil {
		return nil, fmt.Errorf("game: entity table full")
	}
	w.placeAtSpawn(e)
	return e, nil
}

// placeAtSpawn (re)initializes a player at a spawn point, cycling through
// the map's spawns to spread players out.
func (w *World) placeAtSpawn(e *entity.Entity) {
	sp := w.Map.Spawns[w.spawnCursor%len(w.Map.Spawns)]
	w.spawnCursor++
	if e.Link.Linked() {
		w.unlink(e)
	}
	e.Origin = geom.V(sp.Pos.X, sp.Pos.Y, sp.Pos.Z+24) // origin is 24 above feet
	e.Velocity = geom.Vec3{}
	e.Angles = geom.V(0, sp.Yaw, 0)
	e.Mins, e.Maxs = entity.PlayerMins, entity.PlayerMaxs
	e.Health = 100
	e.Armor = 0
	e.Weapon = WeaponRocket
	e.Weapons = 1<<WeaponRocket | 1<<WeaponRail
	e.Ammo = 100
	e.OnGround = false
	e.RespawnTime = 0
	e.RefireAt = 0
	e.HasPowerup = false
	e.RoomID = sp.RoomID
	w.link(e)
}

// RemovePlayer unlinks and frees a player entity (disconnect).
func (w *World) RemovePlayer(id entity.ID) {
	e := w.Ents.Get(id)
	if e == nil || !e.Active {
		return
	}
	w.unlink(e)
	w.Ents.Free(id)
}

// LockContext carries the engine's synchronization machinery into move
// execution. A zero-value context (nil Locker) runs lock-free, which is
// the sequential server's mode.
type LockContext struct {
	// Locker acquires region locks over the areanode tree; nil disables
	// locking entirely.
	Locker *locking.RegionLocker
	// Strategy sizes lock regions (conservative or optimized).
	Strategy locking.Strategy
	// Stats accumulates lock-protocol counts for this request.
	Stats *locking.AcquireStats
	// LeafMask, when non-nil, accumulates the leaf *ordinals* locked
	// during this request as a bitmask — the Fig. 7(c) instrumentation.
	LeafMask *uint64
	// OnWork, when non-nil, is invoked with the work performed inside a
	// held region just before that region is released. The simulated
	// machine uses it to advance virtual time while locks are held, so
	// lock hold durations reflect execution cost; the live engine leaves
	// it nil because real time passes on its own.
	OnWork func(Work)
	// TryFirst makes the *first* region acquisition of the move — the
	// short-range lock, taken before any entity state is mutated —
	// non-blocking: if the region is contended, ExecuteMove returns with
	// MoveResult.Parked set and zero side effects, so a work-stealing
	// scheduler can shelve the request and execute a non-conflicting one
	// instead of queueing. Later acquisitions (weapon fire) still block:
	// by then the move has mutated the world and must run to completion.
	TryFirst bool
}

// chargeHeld reports held-region work to the engine, if it listens.
func (lc *LockContext) chargeHeld(delta Work) {
	if lc.OnWork != nil {
		lc.OnWork(delta)
	}
}

func (lc *LockContext) strategy() locking.Strategy {
	if lc.Strategy != nil {
		return lc.Strategy
	}
	return locking.Conservative{}
}

// acquire locks the strategy's region for (req, kind) and returns the
// guard; it returns an empty guard when locking is disabled.
func (lc *LockContext) acquire(w *World, req locking.Request, kind locking.Kind) locking.Guard {
	if lc.Locker == nil {
		return locking.Guard{}
	}
	region := lc.strategy().Region(w.Map.Bounds, req, kind)
	g := lc.Locker.Acquire(region, lc.Stats)
	lc.noteLeaves(w, &g)
	return g
}

// tryAcquire is acquire without blocking; ok is false when the region is
// contended (nothing held). With locking disabled it always succeeds.
func (lc *LockContext) tryAcquire(w *World, req locking.Request, kind locking.Kind) (locking.Guard, bool) {
	if lc.Locker == nil {
		return locking.Guard{}, true
	}
	region := lc.strategy().Region(w.Map.Bounds, req, kind)
	g, ok := lc.Locker.TryAcquire(region, lc.Stats)
	if !ok {
		return locking.Guard{}, false
	}
	lc.noteLeaves(w, &g)
	return g, true
}

func (lc *LockContext) noteLeaves(w *World, g *locking.Guard) {
	if lc.LeafMask == nil {
		return
	}
	for _, ni := range g.Leaves() {
		if ord := w.Tree.Node(ni).LeafOrdinal; ord >= 0 && ord < 64 {
			*lc.LeafMask |= 1 << uint(ord)
		}
	}
}

// parentGuard returns the transient interior-node guard, or nil when
// locking is disabled. Nil-receiver safe: single-threaded phases pass a
// nil context through damage/spawnCorpse and run guard-free.
func (lc *LockContext) parentGuard() areanode.NodeGuard {
	if lc == nil || lc.Locker == nil {
		return nil
	}
	return lc.Locker.ParentGuard(lc.Stats)
}

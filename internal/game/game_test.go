package game

import (
	"math"
	"runtime"
	"testing"

	"qserve/internal/entity"
	"qserve/internal/geom"
	"qserve/internal/locking"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

func newTestWorld(t testing.TB) *World {
	t.Helper()
	m := worldmap.MustGenerate(worldmap.DefaultConfig())
	w, err := NewWorld(Config{Map: m, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// lockCtx builds a LockContext with a real region locker over a no-op
// provider, so lock bookkeeping paths execute in tests.
func lockCtx(w *World, strat locking.Strategy) (*LockContext, *locking.AcquireStats) {
	stats := &locking.AcquireStats{}
	return &LockContext{
		Locker:   &locking.RegionLocker{Tree: w.Tree, Provider: locking.NopProvider{}},
		Strategy: strat,
		Stats:    stats,
	}, stats
}

func moveCmd(yawDeg float64, fwd int16, buttons uint8, msec uint8) protocol.MoveCmd {
	return protocol.MoveCmd{
		Yaw:     protocol.AngleToWire(yawDeg),
		Forward: fwd,
		Buttons: buttons,
		Msec:    msec,
	}
}

func TestNewWorldPopulation(t *testing.T) {
	w := newTestWorld(t)
	if got, want := w.Ents.CountClass(entity.ClassItem), len(w.Map.Items); got != want {
		t.Errorf("items = %d, want %d", got, want)
	}
	if got, want := w.Ents.CountClass(entity.ClassTeleporter), len(w.Map.Teleporters); got != want {
		t.Errorf("teleporters = %d, want %d", got, want)
	}
	if w.Tree.TotalLinked() != w.Ents.Active() {
		t.Errorf("linked %d of %d entities", w.Tree.TotalLinked(), w.Ents.Active())
	}
	if _, err := NewWorld(Config{}); err == nil {
		t.Error("nil map accepted")
	}
}

func TestSpawnPlayer(t *testing.T) {
	w := newTestWorld(t)
	p1, err := w.SpawnPlayer()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := w.SpawnPlayer()
	if p1.Origin == p2.Origin {
		t.Error("consecutive spawns at the same point")
	}
	if p1.Health != 100 || !p1.Link.Linked() || p1.RoomID < 0 {
		t.Errorf("spawned player state: %+v", p1)
	}
	if w.Collide.BoxSolid(p1.AbsBox().Expand(-0.5), nil) {
		t.Error("player spawned inside geometry")
	}
	w.RemovePlayer(p1.ID)
	if w.Ents.Get(p1.ID).Active {
		t.Error("removed player still active")
	}
	w.RemovePlayer(p1.ID) // idempotent
}

func TestExecuteMoveWalksForward(t *testing.T) {
	w := newTestWorld(t)
	p, _ := w.SpawnPlayer()
	lc, _ := lockCtx(w, locking.Conservative{})
	start := p.Origin
	// Walk east for a second of game time.
	for i := 0; i < 33; i++ {
		cmd := moveCmd(0, 320, 0, 30)
		res := w.ExecuteMove(p, &cmd, lc)
		if res.Work.PhysTraces == 0 {
			t.Fatal("move performed no traces")
		}
	}
	moved := p.Origin.Sub(start).Len()
	if moved < 50 {
		t.Errorf("player moved only %v units", moved)
	}
	if !p.Link.Linked() {
		t.Error("player unlinked after move")
	}
	if p.Link.Box != p.AbsBox() {
		t.Error("areanode link box stale after move")
	}
}

func TestExecuteMoveLockStats(t *testing.T) {
	w := newTestWorld(t)
	p, _ := w.SpawnPlayer()
	lc, stats := lockCtx(w, locking.Conservative{})
	var mask uint64
	lc.LeafMask = &mask
	cmd := moveCmd(90, 320, 0, 30)
	w.ExecuteMove(p, &cmd, lc)
	if stats.LeafLockOps == 0 {
		t.Error("no leaf locks acquired")
	}
	if mask == 0 {
		t.Error("leaf mask not populated")
	}
	// Firing a rocket with conservative locking locks the whole map.
	w.Time = 10
	stats2 := &locking.AcquireStats{}
	lc.Stats = stats2
	cmd = moveCmd(90, 0, protocol.BtnFire, 30)
	w.ExecuteMove(p, &cmd, lc)
	if stats2.LeafLockOps < w.Tree.NumLeaves() {
		t.Errorf("conservative long-range locked %d leaves, want all %d",
			stats2.LeafLockOps, w.Tree.NumLeaves())
	}
}

func TestDeadPlayerDoesNotMove(t *testing.T) {
	w := newTestWorld(t)
	p, _ := w.SpawnPlayer()
	p.Health = 0
	lc, _ := lockCtx(w, locking.Conservative{})
	start := p.Origin
	cmd := moveCmd(0, 320, protocol.BtnFire, 30)
	res := w.ExecuteMove(p, &cmd, lc)
	if p.Origin != start || len(res.Events) != 0 {
		t.Error("dead player moved or acted")
	}
}

func TestPickupHealth(t *testing.T) {
	w := newTestWorld(t)
	p, _ := w.SpawnPlayer()
	// Find a health item and stand on it.
	var item *entity.Entity
	w.Ents.ForEachClass(entity.ClassItem, func(e *entity.Entity) {
		if item == nil && e.ItemClass == worldmap.ItemHealth {
			item = e
		}
	})
	if item == nil {
		t.Skip("map generated no health items")
	}
	w.unlink(p)
	p.Origin = item.Origin.Add(geom.V(0, 0, 24))
	p.Health = 50
	w.link(p)

	lc, _ := lockCtx(w, locking.Conservative{})
	cmd := moveCmd(0, 0, 0, 30)
	res := w.ExecuteMove(p, &cmd, lc)

	if p.Health != 75 {
		t.Errorf("health after pickup = %d", p.Health)
	}
	if item.Link.Linked() {
		t.Error("picked-up item still linked")
	}
	if item.RespawnAt <= w.Time {
		t.Error("no respawn scheduled")
	}
	foundPickup := false
	for _, ev := range res.Events {
		if ev.Kind == EvPickup && ev.Actor == p.ID && ev.Subject == item.ID {
			foundPickup = true
		}
	}
	if !foundPickup {
		t.Errorf("no pickup event: %+v", res.Events)
	}

	// Item respawns after its delay via world frames.
	w.Time = item.RespawnAt - 0.001
	w.RunWorldFrame(0.05)
	if !item.Link.Linked() {
		t.Error("item did not respawn")
	}
}

func TestFullHealthLeavesItem(t *testing.T) {
	w := newTestWorld(t)
	p, _ := w.SpawnPlayer()
	var item *entity.Entity
	w.Ents.ForEachClass(entity.ClassItem, func(e *entity.Entity) {
		if item == nil && e.ItemClass == worldmap.ItemHealth {
			item = e
		}
	})
	if item == nil {
		t.Skip("no health item")
	}
	w.unlink(p)
	p.Origin = item.Origin.Add(geom.V(0, 0, 24))
	w.link(p)
	lc, _ := lockCtx(w, locking.Conservative{})
	cmd := moveCmd(0, 0, 0, 30)
	w.ExecuteMove(p, &cmd, lc)
	if !item.Link.Linked() {
		t.Error("item consumed by full-health player")
	}
}

func TestRocketFiresFliesAndExplodes(t *testing.T) {
	w := newTestWorld(t)
	shooter, _ := w.SpawnPlayer()
	victim, _ := w.SpawnPlayer()

	// Stand them apart in the same room, shooter aiming at victim.
	room := w.Map.Rooms[0].Bounds
	w.unlink(shooter)
	shooter.Origin = room.Center().Add(geom.V(-80, 0, -room.Size().Z/2+49))
	w.link(shooter)
	w.unlink(victim)
	victim.Origin = room.Center().Add(geom.V(80, 0, -room.Size().Z/2+49))
	w.link(victim)

	lc, _ := lockCtx(w, locking.Optimized{})
	w.Time = 1
	cmd := moveCmd(0, 0, protocol.BtnFire, 30)
	res := w.ExecuteMove(shooter, &cmd, lc)
	if w.Ents.CountClass(entity.ClassProjectile) != 1 {
		t.Fatalf("projectiles = %d", w.Ents.CountClass(entity.ClassProjectile))
	}
	if res.Work.Spawns != 1 {
		t.Error("spawn not counted")
	}
	if shooter.RefireAt <= w.Time {
		t.Error("refire not set")
	}

	// Immediate refire is suppressed.
	res2 := w.ExecuteMove(shooter, &cmd, lc)
	if res2.Work.Spawns != 0 {
		t.Error("refire limit ignored")
	}

	// Fly it via world frames until it hits the victim or wall.
	hpBefore := victim.Health
	var killed bool
	for i := 0; i < 60 && w.Ents.CountClass(entity.ClassProjectile) > 0; i++ {
		fres := w.RunWorldFrame(0.03)
		for _, ev := range fres.Events {
			if ev.Kind == EvKill {
				killed = true
			}
		}
	}
	if w.Ents.CountClass(entity.ClassProjectile) != 0 {
		t.Fatal("projectile never detonated")
	}
	if victim.Health >= hpBefore && !killed {
		t.Errorf("victim undamaged: %d -> %d", hpBefore, victim.Health)
	}
}

func TestRailHitsFirstTarget(t *testing.T) {
	w := newTestWorld(t)
	shooter, _ := w.SpawnPlayer()
	near, _ := w.SpawnPlayer()
	farther, _ := w.SpawnPlayer()

	room := w.Map.Rooms[0].Bounds
	base := room.Center()
	base.Z = 49
	place := func(e *entity.Entity, dx float64) {
		w.unlink(e)
		e.Origin = base.Add(geom.V(dx, 0, 0))
		w.link(e)
	}
	place(shooter, -100)
	place(near, 0)
	place(farther, 90)

	shooter.Weapon = WeaponRail
	w.Time = 1
	lc, stats := lockCtx(w, locking.Optimized{})
	cmd := moveCmd(0, 0, protocol.BtnFire, 30)
	res := w.ExecuteMove(shooter, &cmd, lc)

	if near.Health >= 100 {
		t.Errorf("near target undamaged (health %d)", near.Health)
	}
	if farther.Health != 100 {
		t.Errorf("rail overpenetrated to farther target (health %d)", farther.Health)
	}
	if res.Work.Hitscan == 0 {
		t.Error("hitscan work not counted")
	}
	if stats.LeafLockOps == 0 {
		t.Error("directional lock acquired no leaves")
	}
}

func TestKillAndRespawn(t *testing.T) {
	w := newTestWorld(t)
	attacker, _ := w.SpawnPlayer()
	victim, _ := w.SpawnPlayer()
	w.Time = 5

	var res MoveResult
	victim.Armor = 30
	w.damage(victim, attacker, 200, nil, &res)
	if victim.Health != 0 {
		t.Errorf("victim health = %d", victim.Health)
	}
	if attacker.Frags != 1 || victim.Deaths != 1 {
		t.Errorf("frags=%d deaths=%d", attacker.Frags, victim.Deaths)
	}
	if len(res.Events) != 1 || res.Events[0].Kind != EvKill {
		t.Errorf("events = %+v", res.Events)
	}

	// Double kill is a no-op.
	w.damage(victim, attacker, 50, nil, &res)
	if attacker.Frags != 1 {
		t.Error("dead victim fragged twice")
	}

	// Respawn via world frame after the delay.
	w.Time = victim.RespawnTime
	w.RunWorldFrame(0.03)
	if victim.Health != 100 {
		t.Errorf("victim not respawned: health=%d", victim.Health)
	}
	// Suicide decrements frags.
	w.damage(victim, victim, 500, nil, &res)
	if victim.Frags != -1 {
		t.Errorf("suicide frags = %d", victim.Frags)
	}
}

func TestTeleporterRelocates(t *testing.T) {
	w := newTestWorld(t)
	if len(w.Map.Teleporters) == 0 {
		t.Skip("no teleporters")
	}
	p, _ := w.SpawnPlayer()
	tp := w.Map.Teleporters[0]
	w.unlink(p)
	p.Origin = tp.Trigger.Center()
	p.Origin.Z = tp.Trigger.Min.Z + 24
	w.link(p)

	lc, _ := lockCtx(w, locking.Conservative{})
	cmd := moveCmd(0, 0, 0, 30)
	res := w.ExecuteMove(p, &cmd, lc)

	wantOrigin := geom.V(tp.Dest.X, tp.Dest.Y, tp.Dest.Z+24)
	if p.Origin.Dist(wantOrigin) > 1 {
		t.Errorf("player at %v, want %v", p.Origin, wantOrigin)
	}
	if !p.Link.Linked() {
		t.Error("player unlinked after teleport")
	}
	found := false
	for _, ev := range res.Events {
		if ev.Kind == EvTeleport {
			found = true
		}
	}
	if !found {
		t.Error("no teleport event")
	}
}

func TestSnapshotVisibility(t *testing.T) {
	w := newTestWorld(t)
	viewer, _ := w.SpawnPlayer()

	states, work := w.BuildSnapshot(viewer, nil)
	if work.Considered == 0 {
		t.Fatal("snapshot considered nothing")
	}
	if len(states) != work.Visible {
		t.Errorf("states=%d visible=%d", len(states), work.Visible)
	}
	// Everything visible must be in a room the viewer can see or nearby.
	for _, s := range states {
		e := w.Ents.Get(entity.ID(s.ID))
		if e == nil || !e.Active {
			t.Fatalf("snapshot contains dead entity %d", s.ID)
		}
		visible := w.Map.Visible(viewer.RoomID, e.RoomID) ||
			viewer.Origin.Dist(e.Origin) <= visCutoff+1
		if !visible {
			t.Errorf("entity %d in room %d not visible from room %d", s.ID, e.RoomID, viewer.RoomID)
		}
	}
	// ID ordering for delta encoding.
	for i := 1; i < len(states); i++ {
		if states[i].ID <= states[i-1].ID {
			t.Fatal("snapshot not ID-ordered")
		}
	}
	// A far player in an unconnected room is filtered out.
	other, _ := w.SpawnPlayer()
	farRoom := -1
	for r := range w.Map.Rooms {
		if !w.Map.Visible(viewer.RoomID, r) {
			farRoom = r
			break
		}
	}
	if farRoom >= 0 {
		w.unlink(other)
		other.Origin = w.Map.Rooms[farRoom].Bounds.Center()
		w.link(other)
		states, _ = w.BuildSnapshot(viewer, nil)
		for _, s := range states {
			if entity.ID(s.ID) == other.ID {
				t.Error("invisible player included in snapshot")
			}
		}
	}
}

func TestSnapshotExcludesTakenItems(t *testing.T) {
	w := newTestWorld(t)
	viewer, _ := w.SpawnPlayer()
	var taken *entity.Entity
	w.Ents.ForEachClass(entity.ClassItem, func(e *entity.Entity) {
		if taken == nil && w.Map.Visible(viewer.RoomID, e.RoomID) {
			taken = e
		}
	})
	if taken == nil {
		t.Skip("no visible item")
	}
	w.unlink(taken)
	taken.RespawnAt = w.Time + 10
	states, _ := w.BuildSnapshot(viewer, nil)
	for _, s := range states {
		if entity.ID(s.ID) == taken.ID {
			t.Error("taken item still in snapshot")
		}
	}
}

func TestPlayerStateOf(t *testing.T) {
	w := newTestWorld(t)
	p, _ := w.SpawnPlayer()
	p.OnGround = true
	p.HasPowerup = true
	ps := PlayerStateOf(p)
	if ps.Health != 100 || ps.Flags&protocol.PFOnGround == 0 || ps.Flags&protocol.PFPowerup == 0 {
		t.Errorf("player state = %+v", ps)
	}
	p.Health = 0
	ps = PlayerStateOf(p)
	if ps.Flags&protocol.PFDead == 0 {
		t.Error("dead flag missing")
	}
}

func TestWorldFrameAdvancesClock(t *testing.T) {
	w := newTestWorld(t)
	before := w.Time
	res := w.RunWorldFrame(0.05)
	if math.Abs(w.Time-before-0.05) > 1e-9 {
		t.Errorf("time advanced by %v", w.Time-before)
	}
	if res.Work.Scans == 0 {
		t.Error("world frame scanned nothing")
	}
	// Clamping.
	w.RunWorldFrame(10)
	if w.Time > before+0.05+0.25+1e-9 {
		t.Error("dt not clamped")
	}
}

func TestMoveDeterminism(t *testing.T) {
	run := func() geom.Vec3 {
		m := worldmap.MustGenerate(worldmap.DefaultConfig())
		w, _ := NewWorld(Config{Map: m, Seed: 7})
		p, _ := w.SpawnPlayer()
		lc, _ := lockCtx(w, locking.Optimized{})
		for i := 0; i < 50; i++ {
			cmd := moveCmd(float64(i*13%360), 320, map[bool]uint8{true: protocol.BtnFire, false: 0}[i%7 == 0], 30)
			w.ExecuteMove(p, &cmd, lc)
			w.RunWorldFrame(0.03)
		}
		return p.Origin
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical runs diverged: %v vs %v", a, b)
	}
}

func BenchmarkExecuteMove(b *testing.B) {
	w := newTestWorld(b)
	players := make([]*entity.Entity, 32)
	for i := range players {
		players[i], _ = w.SpawnPlayer()
	}
	lc, _ := lockCtx(w, locking.Conservative{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := players[i%len(players)]
		cmd := moveCmd(float64(i*31%360), 320, 0, 30)
		w.ExecuteMove(p, &cmd, lc)
	}
}

func BenchmarkBuildSnapshot(b *testing.B) {
	w := newTestWorld(b)
	players := make([]*entity.Entity, 64)
	for i := range players {
		players[i], _ = w.SpawnPlayer()
	}
	var buf []protocol.EntityState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = w.BuildSnapshot(players[i%len(players)], buf[:0])
	}
}

func BenchmarkWorldFrame(b *testing.B) {
	w := newTestWorld(b)
	for i := 0; i < 64; i++ {
		w.SpawnPlayer()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RunWorldFrame(0.03)
	}
}

// TestExecuteMoveAllocs bounds what one move allocates on the sequential
// engine's path: the zero LockContext, so no NodeGuard and no region
// locker. A move allocates nothing: its candidate arrays, its visitor
// closure and its hull tracer stay on the stack, because areanode never
// hands the visitor to a guard and physics keeps no TraceFunc. The
// ceilings are averages over every move in the run, so they leave slack
// for what the process allocates elsewhere meanwhile, yet one object per
// move breaks the count and either 1 KB candidate array breaks the bytes.
func TestExecuteMoveAllocs(t *testing.T) {
	w := newTestWorld(t)
	players := make([]*entity.Entity, 32)
	for i := range players {
		players[i], _ = w.SpawnPlayer()
	}
	i := 0
	round := func() {
		for _, p := range players {
			cmd := moveCmd(float64(i*31%360), 320, 0, 30)
			w.ExecuteMove(p, &cmd, &LockContext{})
			i++
		}
	}
	round()
	const allocCeiling, byteCeiling = 0.5, 64
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perMove := testing.AllocsPerRun(runs, round) / float64(len(players))
	runtime.ReadMemStats(&after)
	// AllocsPerRun runs one warm-up round before the runs it averages.
	bytesPerMove := float64(after.TotalAlloc-before.TotalAlloc) / float64((runs+1)*len(players))
	t.Logf("zero-LockContext ExecuteMove: %.2f allocs, %.0f B per move", perMove, bytesPerMove)
	if perMove > allocCeiling {
		t.Errorf("ExecuteMove with the zero LockContext allocates %.2f objects per move, ceiling %v", perMove, allocCeiling)
	}
	if bytesPerMove > byteCeiling {
		t.Errorf("ExecuteMove with the zero LockContext allocates %.0f B per move, ceiling %d", bytesPerMove, byteCeiling)
	}
}

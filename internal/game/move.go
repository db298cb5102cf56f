package game

import (
	"math"

	"qserve/internal/areanode"
	"qserve/internal/collide"
	"qserve/internal/entity"
	"qserve/internal/geom"
	"qserve/internal/locking"
	"qserve/internal/physics"
	"qserve/internal/protocol"
	"qserve/internal/worldmap"
)

// Weapon indices.
const (
	// WeaponRocket fires a projectile that is spawned during request
	// processing and completes its flight during the world-physics phase
	// — the paper's first long-range object type (expanded locking).
	WeaponRocket uint8 = 1
	// WeaponRail is a hitscan weapon fully simulated during request
	// processing — the second type (directional locking).
	WeaponRail uint8 = 2
)

// powerupDuration is how long the quad-style powerup lasts.
const powerupDuration = 20.0

// fallDamageSpeed is the downward speed above which a landing hurts.
const fallDamageSpeed = 580.0

// Weapon tuning.
const (
	rocketSpeed       = 900.0
	rocketDamage      = 60
	rocketSplash      = 120.0
	rocketLife        = 3.0
	rocketRefire      = 0.8
	railDamage        = 45
	railRefire        = 1.2
	rocketSpawnAhead  = 40.0 // spawn distance in front of the shooter
	deferredLockRange = 160.0
)

// Work counts the computational effort of one operation, the currency of
// the simulated machine's cost model.
type Work struct {
	TreeNodes  int // areanode nodes scanned
	TreeChecks int // per-item intersection tests in areanode lists
	Collide    collide.Work
	PhysTraces int // hull sweeps
	Clips      int // velocity clips
	Candidates int // obstacle entities gathered for the move
	Touches    int // pickups/teleports executed
	Hitscan    int // entities tested along hitscan rays
	Spawns     int // entities spawned
	Thinks     int // entities advanced during world physics
	Scans      int // entities scanned (but not advanced) in the world phase
	RegionCalc int // lock-region determinations (parallel overhead)
}

// Sub returns w - o, component-wise. Engines use it to isolate the work
// performed while a particular region lock was held.
func (w Work) Sub(o Work) Work {
	return Work{
		TreeNodes:  w.TreeNodes - o.TreeNodes,
		TreeChecks: w.TreeChecks - o.TreeChecks,
		Collide: collide.Work{
			Nodes:      w.Collide.Nodes - o.Collide.Nodes,
			BrushTests: w.Collide.BrushTests - o.Collide.BrushTests,
		},
		PhysTraces: w.PhysTraces - o.PhysTraces,
		Clips:      w.Clips - o.Clips,
		Candidates: w.Candidates - o.Candidates,
		Touches:    w.Touches - o.Touches,
		Hitscan:    w.Hitscan - o.Hitscan,
		Spawns:     w.Spawns - o.Spawns,
		Thinks:     w.Thinks - o.Thinks,
		Scans:      w.Scans - o.Scans,
		RegionCalc: w.RegionCalc - o.RegionCalc,
	}
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.TreeNodes += o.TreeNodes
	w.TreeChecks += o.TreeChecks
	w.Collide.Add(o.Collide)
	w.PhysTraces += o.PhysTraces
	w.Clips += o.Clips
	w.Candidates += o.Candidates
	w.Touches += o.Touches
	w.Hitscan += o.Hitscan
	w.Spawns += o.Spawns
	w.Thinks += o.Thinks
	w.Scans += o.Scans
	w.RegionCalc += o.RegionCalc
}

// Event kinds carried in the global state buffer.
const (
	EvKill uint8 = iota + 1
	EvPickup
	EvTeleport
	EvRespawn
	EvProjectile
)

// Event is one broadcast game occurrence.
type Event struct {
	Kind    uint8
	Actor   entity.ID
	Subject entity.ID
	Pos     geom.Vec3
}

// WireEvent converts to the protocol representation.
func (e Event) WireEvent() protocol.GameEvent {
	x, y, z := protocol.QuantizeVec(e.Pos)
	return protocol.GameEvent{
		Kind: e.Kind, Actor: uint16(e.Actor), Subject: uint16(e.Subject),
		X: x, Y: y, Z: z,
	}
}

// MoveResult reports one executed move command.
type MoveResult struct {
	Work   Work
	Events []Event
	// Parked is set when LockContext.TryFirst was requested and the
	// short-range region was contended: the move executed no side effects
	// (only the region calculation in Work was spent) and must be retried.
	Parked bool
}

// maxCandidates bounds the per-move obstacle scratch list.
const maxCandidates = 128

// ExecuteMove runs one client move command against the world — the
// paper's §2.3 pipeline under the §3.3 locking protocol:
//
//  1. bound the motion (start position + maximum travel distance);
//  2. lock the short-range region and collect candidate objects from the
//     areanode tree (leaf locks held for the whole component, parent
//     locks transient);
//  3. simulate player motion against world and object geometry;
//  4. execute short-range interactions (pickups, teleporter touches);
//  5. relink the player, release the region;
//  6. execute long-range interactions (weapon fire) under their own
//     expanded/directional/whole-map region locks.
//
//qvet:phase=exec
//qvet:det
func (w *World) ExecuteMove(e *entity.Entity, cmd *protocol.MoveCmd, lc *LockContext) MoveResult {
	var res MoveResult
	if e == nil {
		return res
	}
	dt := float64(cmd.Msec) / 1000
	if dt <= 0 {
		dt = 0.001
	}
	if dt > 0.1 {
		dt = 0.1
	}
	viewAngles := cmd.ViewAngles()

	// Step 1: the move's bounding box. Origin/Mins/Maxs are safe to read
	// before locking: they are written only by this entity's owning thread
	// (this very call) or by barrier-ordered phases. Every other entity
	// field — Active, Health, Angles, Weapon — is deferred to the locked
	// section below, where the region lock over e's position excludes the
	// concurrent attackers and removers that write them.
	maxDist := physics.MaxMoveDistance(w.Phys, float64(cmd.Msec))
	moveBox := e.AbsBox().Expand(maxDist)
	req := locking.Request{
		Start:   e.Origin,
		MoveBox: moveBox,
		AimDir:  geom.Forward(viewAngles),
		Range:   deferredLockRange,
	}
	res.Work.RegionCalc++

	// Step 2: lock the short-range region and gather candidates. This is
	// the first acquisition and precedes every entity mutation, so a
	// TryFirst refusal is a clean abort point: the caller may park the
	// request and re-execute it later from scratch.
	var guard locking.Guard
	if lc.TryFirst {
		var ok bool
		guard, ok = lc.tryAcquire(w, req, locking.KindShortRange)
		if !ok {
			res.Parked = true
			return res
		}
	} else {
		guard = lc.acquire(w, req, locking.KindShortRange)
	}
	workAtAcquire := res.Work
	if !e.Active || e.Class != entity.ClassPlayer {
		// Removed (disconnect) between dispatch and lock acquisition.
		lc.chargeHeld(res.Work.Sub(workAtAcquire))
		guard.Release()
		return res
	}
	e.Angles = viewAngles
	if cmd.Impulse == 1 || cmd.Impulse == 2 {
		e.Weapon = cmd.Impulse
	}
	if e.Health <= 0 {
		// Dead players do not move; they wait for the world phase to
		// respawn them, but the server still replies. (They still turn
		// their view and switch weapons, above.)
		lc.chargeHeld(res.Work.Sub(workAtAcquire))
		guard.Release()
		return res
	}
	var st areanode.TraversalStats
	var solids [maxCandidates]*entity.Entity
	var touchables [maxCandidates]*entity.Entity
	nSolid, nTouch := 0, 0
	w.Tree.CollectBox(moveBox, lc.parentGuard(), func(it *areanode.Item) bool {
		other := it.Owner.(*entity.Entity)
		if other == e {
			return true
		}
		switch {
		case other.IsSolidToMovement():
			if nSolid < maxCandidates {
				solids[nSolid] = other
				nSolid++
			}
		case other.Class == entity.ClassItem || other.Class == entity.ClassTeleporter:
			if nTouch < maxCandidates {
				touchables[nTouch] = other
				nTouch++
			}
		}
		return true
	}, &st)
	res.Work.TreeNodes += st.NodesVisited
	res.Work.TreeChecks += st.ItemsChecked
	res.Work.Candidates += nSolid + nTouch

	// Step 3: simulate the motion.
	ht := hullTracer{w: w, solids: solids[:nSolid], he: e.HalfExtents(), off: e.CenterOffset(), work: &res.Work}
	state := physics.State{Origin: e.Origin, Velocity: e.Velocity, OnGround: e.OnGround}
	pcmd := physics.Cmd{
		WishDir:   wishDir(e.Angles, cmd),
		WishSpeed: wishSpeed(cmd),
		Jump:      cmd.Buttons&protocol.BtnJump != 0,
	}
	fallSpeed := -e.Velocity.Z
	pres := physics.PlayerMove(w.Phys, ht.trace, &state, pcmd, dt)
	res.Work.PhysTraces += pres.Traces
	res.Work.Clips += pres.ClipPlanes
	landed := !e.OnGround && state.OnGround
	e.Origin, e.Velocity, e.OnGround = state.Origin, state.Velocity, state.OnGround
	e.ModelFrame++

	// Falling damage: a hard landing hurts, as in the engine.
	if landed && fallSpeed > fallDamageSpeed {
		dmg := int((fallSpeed - fallDamageSpeed) / 20)
		if dmg > 0 {
			w.damage(e, nil, dmg, lc, &res)
		}
	}

	// Step 4: short-range interactions — touch items and teleporters
	// overlapping the post-move hull.
	newBox := e.AbsBox()
	teleportIdx := -1
	for i := 0; i < nTouch; i++ {
		other := touchables[i]
		if !other.Active || !other.AbsBox().Intersects(newBox) {
			continue
		}
		switch other.Class {
		case entity.ClassItem:
			w.pickupItem(e, other, lc, &res)
		case entity.ClassTeleporter:
			if other.ItemSpawn >= 0 && other.ItemSpawn < len(w.Map.Teleporters) {
				teleportIdx = other.ItemSpawn
			}
		}
	}

	// Step 5: relink at the new position (still inside the locked
	// short-range region, since motion is bounded by moveBox; the guarded
	// variant protects the interior-node list if the new box crosses a
	// division plane).
	w.linkGuarded(e, lc)
	lc.chargeHeld(res.Work.Sub(workAtAcquire))
	guard.Release()

	// Teleporting relinks the player far away, outside the released
	// region, so it takes its own lock over the destination.
	if teleportIdx >= 0 {
		w.executeTeleport(e, w.Map.Teleporters[teleportIdx], lc, &res)
	}

	// Step 6: long-range interactions. Weapon logic runs on every command
	// (the engine's per-move weapon frame); an actual shot replaces the
	// idle weapon frame.
	if cmd.Buttons&protocol.BtnFire != 0 && w.Time >= e.RefireAt && e.Ammo > 0 {
		switch e.Weapon {
		case WeaponRail:
			w.fireRail(e, req, lc, &res)
		default:
			w.fireRocket(e, req, lc, &res)
		}
	} else {
		w.weaponFrame(e, req, lc, &res)
	}
	return res
}

// hullTracer is the combined world+entities trace for one player's hull,
// accumulating work counters. ExecuteMove hands PlayerMove its trace
// method; physics keeps no TraceFunc past the call, so the tracer and the
// candidate array its solids slice points into stay on the mover's stack.
type hullTracer struct {
	w      *World
	solids []*entity.Entity
	he     geom.Vec3 // hull half extents
	off    geom.Vec3 // origin → hull centre
	work   *Work
}

func (h *hullTracer) trace(a, b geom.Vec3) collide.Trace {
	var cw collide.Work
	best := h.w.Collide.TraceBox(a.Add(h.off), b.Add(h.off), h.he, &cw)
	h.work.Collide.Add(cw)
	best.End = best.End.Sub(h.off)
	for _, other := range h.solids {
		if !other.Active {
			continue
		}
		tr := collide.TraceBoxAgainst(other.AbsBox(), a.Add(h.off), b.Add(h.off), h.he)
		if tr.Hit && (tr.StartSolid || tr.Fraction < best.Fraction || !best.Hit) {
			if !best.Hit || tr.Fraction < best.Fraction || tr.StartSolid {
				tr.End = tr.End.Sub(h.off)
				best = tr
			}
		}
	}
	return best
}

// wishDir derives the world-space wish direction from view angles and the
// move command's forward/side indicators.
func wishDir(angles geom.Vec3, cmd *protocol.MoveCmd) geom.Vec3 {
	fwd, right, _ := geom.AngleVectors(geom.V(0, angles.Y, 0))
	dir := fwd.Scale(float64(cmd.Forward)).Add(right.Scale(float64(cmd.Side)))
	return dir.Norm()
}

// wishSpeed derives the commanded speed from the larger of the motion
// indicators.
func wishSpeed(cmd *protocol.MoveCmd) float64 {
	sp := math.Max(math.Abs(float64(cmd.Forward)), math.Abs(float64(cmd.Side)))
	return sp
}

// pickupItem applies an item's effect and removes it from the world
// until respawn. The caller holds the region lock covering the item.
func (w *World) pickupItem(player, item *entity.Entity, lc *LockContext, res *MoveResult) {
	switch item.ItemClass {
	case worldmap.ItemHealth:
		if player.Health >= 100 {
			return // leave the item for someone who needs it
		}
		player.Health += 25
		if player.Health > 100 {
			player.Health = 100
		}
	case worldmap.ItemArmor:
		if player.Armor >= 100 {
			return
		}
		player.Armor += 50
		if player.Armor > 100 {
			player.Armor = 100
		}
	case worldmap.ItemWeapon:
		player.Weapons |= 1 << WeaponRail
		player.Ammo += 10
	case worldmap.ItemAmmo:
		player.Ammo += 20
	case worldmap.ItemPowerup:
		player.HasPowerup = true
		player.PowerupUntil = w.Time + powerupDuration
	}
	// Guarded: an item overlapping a division plane is linked at an
	// interior node the held region lock does not cover.
	w.unlinkGuarded(item, lc)
	item.RespawnAt = w.Time + w.Map.Items[item.ItemSpawn].RespawnSec
	res.Work.Touches++
	res.Events = append(res.Events, Event{
		Kind: EvPickup, Actor: player.ID, Subject: item.ID, Pos: item.Origin,
	})
}

// executeTeleport relocates the player to the teleporter destination,
// locking the destination region for the relink — the move that "may
// sometimes be in far locations in the game world".
func (w *World) executeTeleport(e *entity.Entity, tp worldmap.Teleporter, lc *LockContext, res *MoveResult) {
	destOrigin := geom.V(tp.Dest.X, tp.Dest.Y, tp.Dest.Z+24)
	destBox := geom.BoxHull(destOrigin, e.Mins, e.Maxs)
	// The region must span the destination AND the player's current
	// position: the unlink below splices the old position's node list,
	// which a lock over only the destination would leave unprotected
	// against movers near the departure point.
	req := locking.Request{Start: destOrigin, MoveBox: destBox.Union(e.AbsBox())}
	res.Work.RegionCalc++
	guard := lc.acquire(w, req, locking.KindShortRange)
	before := res.Work
	w.unlinkGuarded(e, lc)
	e.Origin = destOrigin
	e.Velocity = geom.Vec3{}
	e.Angles = geom.V(0, tp.DestYaw, 0)
	w.linkGuarded(e, lc)
	res.Work.Touches++
	lc.chargeHeld(res.Work.Sub(before))
	guard.Release()
	res.Events = append(res.Events, Event{Kind: EvTeleport, Actor: e.ID, Pos: destOrigin})
}

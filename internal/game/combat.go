package game

import (
	"qserve/internal/areanode"
	"qserve/internal/collide"
	"qserve/internal/entity"
	"qserve/internal/geom"
	"qserve/internal/locking"
)

// fireRocket spawns a projectile entity in front of the shooter. The
// projectile is "partly simulated during request processing and then
// [its] trajectory ... completed during the world physics processing
// phase", so the lock region is the expanded bounding box covering its
// maximum in-request interaction range (§4.3, first object type).
func (w *World) fireRocket(e *entity.Entity, req locking.Request, lc *LockContext, res *MoveResult) {
	res.Work.RegionCalc++
	guard := lc.acquire(w, req, locking.KindLongRangeDeferred)
	before := res.Work
	defer func() {
		lc.chargeHeld(res.Work.Sub(before))
		guard.Release()
	}()

	dir := geom.Forward(e.Angles)
	muzzle := e.Origin.Add(geom.V(0, 0, 8))
	spawnPos := muzzle.MA(rocketSpawnAhead, dir)

	// Don't spawn inside or beyond a wall (firing point pressed against
	// geometry): the rocket fizzles instead.
	tr := w.Collide.TraceSegment(muzzle, spawnPos, &res.Work.Collide)
	if tr.Hit || w.Collide.PointSolid(spawnPos, &res.Work.Collide) ||
		!w.Map.Bounds.Contains(spawnPos) {
		e.RefireAt = w.Time + rocketRefire
		return
	}

	w.entMu.Lock()
	p := w.Ents.Alloc(entity.ClassProjectile)
	w.entMu.Unlock()
	if p == nil {
		return // table full: drop the shot
	}
	p.Origin = spawnPos
	p.Velocity = dir.Scale(rocketSpeed)
	p.Mins, p.Maxs = entity.ProjectileMins, entity.ProjectileMaxs
	p.Owner = e.ID
	p.Damage = rocketDamage
	p.DieAt = w.Time + rocketLife
	p.NextThink = w.Time // thinks every world frame
	// Guarded: the spawn position can cross a division plane, linking the
	// projectile at an interior node outside the held region's leaves.
	w.linkGuarded(p, lc)

	e.Ammo--
	e.RefireAt = w.Time + rocketRefire
	res.Work.Spawns++
	res.Events = append(res.Events, Event{Kind: EvProjectile, Actor: e.ID, Pos: spawnPos})
}

// fireRail performs a hitscan shot: the interaction is "fully simulated
// during request processing", so the §4.3 directional bounding-box lock
// covers every region the ray can affect before tracing it.
func (w *World) fireRail(e *entity.Entity, req locking.Request, lc *LockContext, res *MoveResult) {
	res.Work.RegionCalc++
	guard := lc.acquire(w, req, locking.KindLongRangeImmediate)
	before := res.Work
	defer func() {
		lc.chargeHeld(res.Work.Sub(before))
		guard.Release()
	}()

	dir := geom.Forward(e.Angles)
	eye := e.Origin.Add(geom.V(0, 0, 20))

	// World geometry bounds the ray.
	far := eye.MA(1e5, dir)
	wallTr := w.Collide.TraceSegment(eye, far, &res.Work.Collide)
	end := wallTr.End

	// Find the first player hit along the segment via the areanode tree.
	rayBox := geom.Box(eye, end).Expand(16)
	var best *entity.Entity
	bestT := 1.0
	var st areanode.TraversalStats
	w.Tree.CollectBox(rayBox, lc.parentGuard(), func(it *areanode.Item) bool {
		other := it.Owner.(*entity.Entity)
		if other == e || other.Class != entity.ClassPlayer || other.Health <= 0 {
			return true
		}
		res.Work.Hitscan++
		tr := collide.TraceBoxAgainst(other.AbsBox(), eye, end, geom.Vec3{})
		if tr.Hit && tr.Fraction < bestT {
			bestT = tr.Fraction
			best = other
		}
		return true
	}, &st)
	res.Work.TreeNodes += st.NodesVisited
	res.Work.TreeChecks += st.ItemsChecked

	if best != nil {
		w.damage(best, e, railDamage, lc, res)
	}
	e.Ammo--
	e.RefireAt = w.Time + railRefire
}

// weaponFrame is the long-range component present in every move command
// even when the player does not fire: the engine's per-command weapon
// logic (aim tracking, charge/cool-down simulation, target checks). It is
// cheap to execute but, under the baseline strategy, synchronizes
// "highly conservatively": the §3.3 protocol locks the entire map for
// long-range interactions regardless of what the component ends up
// touching, because its reach is not known before it runs. This is
// precisely the cost §4.3's optimized locking attacks.
func (w *World) weaponFrame(e *entity.Entity, req locking.Request, lc *LockContext, res *MoveResult) {
	res.Work.RegionCalc++
	kind := locking.KindLongRangeDeferred
	if e.Weapon == WeaponRail {
		kind = locking.KindLongRangeImmediate
	}
	guard := lc.acquire(w, req, kind)
	before := res.Work
	// Aim maintenance: trace the view ray so the weapon logic knows what
	// the player is pointing at. Nothing reads the result — the trace is
	// the work the modelled long-range lock is held over (DESIGN.md
	// §3.1(2)), so it stays.
	dir := geom.Forward(e.Angles)
	eye := e.Origin.Add(geom.V(0, 0, 20))
	w.Collide.TraceSegment(eye, eye.MA(2048, dir), &res.Work.Collide)
	lc.chargeHeld(res.Work.Sub(before))
	guard.Release()
}

// damage applies damage to a player, handling armor absorption and death.
// The caller holds a region lock covering the victim (hitscan's
// directional region or a splash radius region); lc carries the guard
// for the corpse link on death and is nil in single-threaded phases.
func (w *World) damage(victim, attacker *entity.Entity, amount int, lc *LockContext, res *MoveResult) {
	if victim.Health <= 0 {
		return
	}
	if attacker != nil && attacker.HasPowerup {
		amount *= 2
	}
	absorbed := amount / 3
	if absorbed > victim.Armor {
		absorbed = victim.Armor
	}
	victim.Armor -= absorbed
	victim.Health -= amount - absorbed
	if victim.Health <= 0 {
		victim.Health = 0
		victim.Deaths++
		victim.RespawnTime = w.Time + 1.5
		if attacker != nil && attacker != victim {
			attacker.Frags++
		} else if attacker == victim {
			victim.Frags--
		}
		var aid entity.ID = entity.None
		if attacker != nil {
			aid = attacker.ID
		}
		res.Events = append(res.Events, Event{
			Kind: EvKill, Actor: aid, Subject: victim.ID, Pos: victim.Origin,
		})
		w.spawnCorpse(victim, lc, res)
	}
}

// corpseLinger is how long a corpse stays in the world before the world
// phase removes it.
const corpseLinger = 3.0

// spawnCorpse drops a corpse entity where a player died. The caller
// holds a region lock covering the victim, which also covers the corpse
// (same location), so linking here is safe in the parallel engine.
// Corpses are decorative but load-bearing for the study: they churn the
// entity table and add snapshot traffic around fights, as in the engine.
func (w *World) spawnCorpse(victim *entity.Entity, lc *LockContext, res *MoveResult) {
	w.entMu.Lock()
	c := w.Ents.Alloc(entity.ClassCorpse)
	w.entMu.Unlock()
	if c == nil {
		return
	}
	c.Origin = victim.Origin
	c.Angles = victim.Angles
	// A corpse lies down: wide and flat.
	c.Mins = geom.V(-16, -16, -24)
	c.Maxs = geom.V(16, 16, -8)
	c.DieAt = w.Time + corpseLinger
	c.RoomID = victim.RoomID
	w.linkGuarded(c, lc)
	res.Work.Spawns++
}

// explodeProjectile applies splash damage around an impact and removes
// the projectile. Runs during the world-physics phase (master thread,
// no locks needed — the phase is exclusive by the frame barriers).
func (w *World) explodeProjectile(p *entity.Entity, res *MoveResult) {
	splashBox := geom.BoxAt(p.Origin, geom.V(rocketSplash, rocketSplash, rocketSplash))
	attacker := w.Ents.Get(p.Owner)
	if attacker != nil && (!attacker.Active || attacker.Class != entity.ClassPlayer) {
		attacker = nil
	}
	var st areanode.TraversalStats
	w.Tree.CollectBox(splashBox, nil, func(it *areanode.Item) bool {
		other := it.Owner.(*entity.Entity)
		if other.Class != entity.ClassPlayer || other.Health <= 0 {
			return true
		}
		d := other.Origin.Dist(p.Origin)
		if d > rocketSplash {
			return true
		}
		dmg := int(float64(p.Damage) * (1 - d/rocketSplash))
		if dmg > 0 {
			w.damage(other, attacker, dmg, nil, res)
		}
		return true
	}, &st)
	res.Work.TreeNodes += st.NodesVisited
	res.Work.TreeChecks += st.ItemsChecked

	w.unlink(p)
	w.entMu.Lock()
	w.Ents.Free(p.ID)
	w.entMu.Unlock()
}

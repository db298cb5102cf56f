// Package entity defines the dynamic game objects ("edicts" in engine
// terms) and the fixed-capacity table that owns them. Entities are plain
// data; behaviour lives in package game, and spatial indexing in package
// areanode via the embedded link handle.
package entity

import (
	"qserve/internal/areanode"
	"qserve/internal/geom"
	"qserve/internal/worldmap"
)

// ID indexes an entity in its Table. Valid IDs are >= 0; None marks the
// absence of an entity.
type ID int32

// None is the null entity ID.
const None ID = -1

// Class discriminates entity behaviour.
type Class uint8

// Entity classes. The set mirrors what the paper's move execution
// touches: players, pickups (short-range interactions), projectiles
// (long-range interactions completed during world physics), and
// teleporters (moves that relink entities far away).
const (
	ClassNone Class = iota
	ClassPlayer
	ClassItem
	ClassProjectile
	ClassTeleporter
	ClassCorpse
	ClassDoor
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassPlayer:
		return "player"
	case ClassItem:
		return "item"
	case ClassProjectile:
		return "projectile"
	case ClassTeleporter:
		return "teleporter"
	case ClassCorpse:
		return "corpse"
	case ClassDoor:
		return "door"
	default:
		return "invalid"
	}
}

// Standard hull sizes, in world units, relative to the entity origin.
// Player dimensions are the engine's: 32 wide, 56 tall, origin 24 above
// the feet. They are never written: every match in the process shares
// them.
var (
	PlayerMins = geom.V(-16, -16, -24)
	PlayerMaxs = geom.V(16, 16, 32)

	ItemMins = geom.V(-12, -12, -16)
	ItemMaxs = geom.V(12, 12, 16)

	ProjectileMins = geom.V(-4, -4, -4)
	ProjectileMaxs = geom.V(4, 4, 4)
)

// Entity is one dynamic game object. All fields are owned by whichever
// server thread holds the region lock covering the entity, per the
// paper's synchronization protocol; the entity itself carries no locks.
type Entity struct {
	ID     ID
	Class  Class
	Active bool

	// Kinematics.
	Origin   geom.Vec3
	Velocity geom.Vec3
	Angles   geom.Vec3 // pitch/yaw/roll, degrees
	Mins     geom.Vec3 // hull min corner relative to Origin
	Maxs     geom.Vec3 // hull max corner relative to Origin
	OnGround bool

	// Vitals (players and corpses).
	Health int
	Armor  int
	Frags  int
	Deaths int

	// Inventory (players).
	Weapon     uint8 // current weapon index
	Weapons    uint16
	Ammo       int
	HasPowerup bool
	// PowerupUntil is the server time the powerup wears off.
	PowerupUntil float64

	// Item fields.
	ItemClass worldmap.ItemClass
	ItemSpawn int     // index into the map's item spawn list, -1 otherwise
	RespawnAt float64 // server time when a taken item reappears

	// Projectile fields.
	Owner  ID      // shooter
	Damage int     // on impact
	DieAt  float64 // flight time limit

	// Player/corpse respawn bookkeeping.
	RespawnTime float64

	// RefireAt is the earliest server time the player may fire again.
	RefireAt float64

	// NextThink schedules world-physics-phase processing; zero = never.
	NextThink float64

	// RoomID caches the map room containing Origin; -1 when unknown.
	// Reply processing uses it for visibility filtering.
	RoomID int

	// SnapEligible marks entities that belong in client snapshots:
	// active, not a teleporter trigger, and (for items) currently linked.
	// Table.Alloc/Free and the game link/unlink paths maintain it, so
	// eligibility is decided once per state change instead of once per
	// client per frame. The visibility index is built from this flag.
	SnapEligible bool

	// ModelFrame is an opaque animation counter carried to clients.
	ModelFrame uint8

	// Link is the areanode handle. game relinks it on every move.
	Link areanode.Item
}

// AbsBox returns the entity's absolute bounding box.
func (e *Entity) AbsBox() geom.AABB {
	return geom.BoxHull(e.Origin, e.Mins, e.Maxs)
}

// HalfExtents returns the hull half extents for swept-box traces.
func (e *Entity) HalfExtents() geom.Vec3 {
	return e.Maxs.Sub(e.Mins).Scale(0.5)
}

// HullCenter returns the center of the hull in absolute coordinates;
// traces operate on centers while game logic works with origins.
func (e *Entity) HullCenter() geom.Vec3 {
	return e.Origin.Add(e.Mins.Add(e.Maxs).Scale(0.5))
}

// CenterOffset is HullCenter minus Origin; constant per hull.
func (e *Entity) CenterOffset() geom.Vec3 {
	return e.Mins.Add(e.Maxs).Scale(0.5)
}

// Alive reports whether a player entity is alive.
func (e *Entity) Alive() bool {
	return e.Active && e.Class == ClassPlayer && e.Health > 0
}

// IsSolidToMovement reports whether other entities collide with e.
// Items, teleporter triggers, and projectiles are touch volumes only.
func (e *Entity) IsSolidToMovement() bool {
	switch e.Class {
	case ClassPlayer:
		return e.Health > 0
	case ClassDoor:
		return true
	default:
		return false
	}
}

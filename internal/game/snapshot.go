package game

import (
	"qserve/internal/entity"
	"qserve/internal/protocol"
)

// SnapshotWork counts reply-phase effort for one client: how many
// entities were considered for visibility and how many were serialized.
// Reply processing cost scales with visibility — the paper observes that
// "maps exhibiting higher visibility incur higher reply processing
// times".
type SnapshotWork struct {
	Considered int
	Visible    int
}

// visCutoff includes nearby entities regardless of the room-visibility
// matrix (sounds carry through walls).
const visCutoff = 320.0

// BuildSnapshot assembles the viewer's visible entity set, appending wire
// states to dst (which is returned, grown). States are emitted in entity
// ID order, the order DeltaEntities requires. Reply processing "involves
// reading global state but writing only private (per-client) reply
// messages", so this function takes no locks in any engine.
//
// Aliasing contract: the returned slice shares dst's backing array
// whenever capacity allows, so a caller reusing one scratch slice across
// calls (the allocation-free reply pipeline) must never retain the
// returned slice past the next BuildSnapshot into the same scratch —
// copy it out (or swap ownership of whole buffers, as
// server.ReplyScratch does with its baseline) before reusing dst.
//
//qvet:phase=reply
func (w *World) BuildSnapshot(viewer *entity.Entity, dst []protocol.EntityState) ([]protocol.EntityState, SnapshotWork) {
	var work SnapshotWork
	viewerRoom := viewer.RoomID
	high := w.Ents.HighWater()
	for i := 0; i < high; i++ {
		e := w.Ents.Get(entity.ID(i))
		if e == nil || !e.Active || e == viewer {
			continue
		}
		// Unlinked items (taken, awaiting respawn) are invisible.
		if e.Class == entity.ClassItem && !e.Link.Linked() {
			continue
		}
		if e.Class == entity.ClassTeleporter {
			continue // static triggers are part of the map, not snapshots
		}
		work.Considered++
		if !w.entityVisible(viewerRoom, viewer, e) {
			continue
		}
		dst = append(dst, captureState(e))
		work.Visible++
	}
	return dst, work
}

// entityVisible implements the paper's interest filtering: "the server
// determines which entities are of interest to each client ... it will
// notify a client only of entities that are visible to it or that may
// soon become visible and sounds that are audible."
func (w *World) entityVisible(viewerRoom int, viewer, e *entity.Entity) bool {
	if e.RoomID >= 0 && viewerRoom >= 0 {
		if w.Map.Visible(viewerRoom, e.RoomID) {
			return true
		}
	} else {
		// Unknown room (inside a doorway band): fall through to range.
	}
	return viewer.Origin.DistSq(e.Origin) <= visCutoff*visCutoff
}

// captureState encodes one entity's wire state. Both the naive scan and
// the VisIndex cache build go through this single encoder, so the two
// reply paths emit identical bytes by construction.
func captureState(e *entity.Entity) protocol.EntityState {
	var s protocol.EntityState
	s.ID = uint16(e.ID)
	s.Class = uint8(e.Class)
	s.SetOrigin(e.Origin)
	s.SetYaw(e.Angles.Y)
	s.Frame = e.ModelFrame
	s.Effects = entityEffects(e)
	return s
}

func entityEffects(e *entity.Entity) uint8 {
	var fx uint8
	if e.HasPowerup {
		fx |= 1
	}
	if e.Health <= 0 && e.Class == entity.ClassPlayer {
		fx |= 2
	}
	return fx
}

// PlayerStateOf converts a player entity to its wire self-state.
func PlayerStateOf(e *entity.Entity) protocol.PlayerState {
	var ps protocol.PlayerState
	ps.Origin = e.Origin
	ps.Velocity = e.Velocity
	ps.Health = int16(e.Health)
	ps.Armor = int16(e.Armor)
	ps.Ammo = int16(e.Ammo)
	ps.Weapon = e.Weapon
	ps.Frags = int16(e.Frags)
	if e.OnGround {
		ps.Flags |= protocol.PFOnGround
	}
	if e.Health <= 0 {
		ps.Flags |= protocol.PFDead
	}
	if e.HasPowerup {
		ps.Flags |= protocol.PFPowerup
	}
	return ps
}

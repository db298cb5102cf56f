package checkpoint

import (
	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/qfile"
)

// foldEntity is the one list of entity fields that enter the world
// digest — which fields, in what order, at what width. Live worlds reach
// it through recFromEntity (DigestWorld, the capture path), decoded files
// through their entity section (DigestEntities), so the digest a capture
// stamps, the one recovery verifies and replay.TableDigest are the same
// function. Changing the list changes every recorded digest: the format
// pins in internal/replay fail until they are re-captured.
func foldEntity(h qfile.Fold64, e *EntityRec) qfile.Fold64 {
	h = h.U32(e.ID).Byte(e.Class)
	h = h.F64(e.Origin.X).F64(e.Origin.Y).F64(e.Origin.Z)
	h = h.F64(e.Velocity.X).F64(e.Velocity.Y).F64(e.Velocity.Z)
	h = h.F64(e.Angles.X).F64(e.Angles.Y).F64(e.Angles.Z)
	h = h.Bool(e.Flags&FlagOnGround != 0)
	h = h.I64(e.Health).I64(e.Armor)
	h = h.I64(e.Frags).I64(e.Deaths)
	h = h.Byte(e.Weapon).U32(uint32(e.Weapons)).I64(e.Ammo)
	h = h.Bool(e.Flags&FlagHasPowerup != 0).F64(e.PowerupUntil)
	h = h.Byte(e.ItemClass).I64(e.ItemSpawn).F64(e.RespawnAt)
	h = h.U32(uint32(e.Owner)).I64(e.Damage).F64(e.DieAt)
	h = h.F64(e.RespawnTime).F64(e.RefireAt).F64(e.NextThink)
	return h
}

// DigestEntities folds a world clock and a full entity-record set (in
// ascending ID order, as the Entities section is stored) into the world
// digest — equal to DigestWorld of the world those records restore.
//
//qvet:det
func DigestEntities(worldTime float64, ents []EntityRec) uint64 {
	h := qfile.Fold64Init.F64(worldTime)
	for i := range ents {
		h = foldEntity(h, &ents[i])
	}
	return uint64(h)
}

// DigestWorld folds a live world — the clock, then every active entity in
// ID order. Two worlds with equal digests went through the same evolution
// bit for bit.
//
//qvet:det
func DigestWorld(w *game.World) uint64 {
	h := qfile.Fold64Init.F64(w.Time)
	w.Ents.ForEach(func(e *entity.Entity) {
		var rec EntityRec
		recFromEntity(e, &rec)
		h = foldEntity(h, &rec)
	})
	return uint64(h)
}

package replay

import (
	"fmt"
	"time"

	"qserve/internal/checkpoint"
	"qserve/internal/entity"
	"qserve/internal/game"
	"qserve/internal/server"
)

// Recovery is the outcome of rolling a checkpoint forward through a redo
// log: the reconstructed world plus the client bookkeeping a restarted
// server needs to park the survivors for reconnection.
type Recovery struct {
	// World is the recovered world, bit-identical (TableDigest) to the
	// crashed server's world at the last durable frame.
	World *game.World
	// Checkpoint is the (merged, verified) checkpoint recovery started
	// from.
	Checkpoint *checkpoint.Checkpoint
	// Clients is the connected-client set at the recovered frame:
	// checkpointed clients, updated through the tail (new connects appear
	// with empty Addr, disconnected ones vanish, seqs advance).
	Clients []checkpoint.ClientRec
	// Frame is the last frame the tail completed (the checkpoint's frame
	// when the tail held none).
	Frames uint64
	// TailItems counts redo-log items applied past the checkpoint cut.
	TailItems int
	// TailDropped is the torn-tail byte count DecodePrefix discarded.
	TailDropped int
	// RecItems is the redo-log position the recovered state corresponds
	// to — a server resuming recording continues from here.
	RecItems uint64
	// JoinIdx and NextClientID resume the restarted server's allocation
	// counters: the checkpoint's values advanced by tail connects, so
	// post-restart joiners collide with neither a recycled entity slot
	// nor a surviving client's id.
	JoinIdx      int
	NextClientID uint16
}

// RestoreState packages the recovery for server.Config.Restore.
// recoveryNs is the measured restore + redo-tail wall time, surfaced in
// the restarted engine's metrics breakdown.
func (rv *Recovery) RestoreState(recoveryNs int64) *server.RestoreState {
	return &server.RestoreState{
		Frame:        rv.Frames,
		JoinIdx:      rv.JoinIdx,
		NextClientID: rv.NextClientID,
		Clients:      rv.Clients,
		RecoveryNs:   recoveryNs,
	}
}

// Recover rebuilds the pre-crash world: load the newest valid checkpoint
// in dir, restore its world, and — when tailLog is non-empty — apply the
// redo-log records past the checkpoint's cut point. The tail is applied
// single-threaded in log order, which reproduces the crashed server's
// commit order exactly (the log records commits, whatever interleaving
// produced them — DESIGN.md §11), so the recovered table digest matches
// the crashed server's at its last flushed frame.
//
// tailLog may be "" (checkpoint only) or name a `.qrl` file streamed by
// NewStreamRecorder alongside the checkpoints; a torn tail (kill -9 mid
// flush) is cut at the last intact record.
func Recover(dir, tailLog string) (*Recovery, error) {
	ck, err := checkpoint.LoadLatest(dir)
	if err != nil {
		return nil, err
	}
	var lg *Log
	dropped := 0
	if tailLog != "" {
		lg, dropped, err = ReadPrefixFile(tailLog)
		if err != nil {
			return nil, fmt.Errorf("replay: redo log %s: %w", tailLog, err)
		}
	}
	return RecoverFrom(ck, lg, dropped)
}

// RecoverFrom rolls an already-loaded checkpoint forward through an
// already-decoded redo log (which may be nil).
func RecoverFrom(ck *checkpoint.Checkpoint, lg *Log, dropped int) (*Recovery, error) {
	w, err := ck.RestoreWorld()
	if err != nil {
		return nil, err
	}
	rv := &Recovery{
		World:        w,
		Checkpoint:   ck,
		Frames:       ck.Frame,
		TailDropped:  dropped,
		RecItems:     ck.RecItems,
		JoinIdx:      ck.JoinIdx,
		NextClientID: ck.NextClientID,
	}
	// Client set keyed by id; ents maps a client to its player entity.
	clients := make(map[uint16]checkpoint.ClientRec, len(ck.Clients))
	order := make([]uint16, 0, len(ck.Clients)+8)
	for _, c := range ck.Clients {
		clients[c.ID] = c
		order = append(order, c.ID)
	}
	if lg == nil {
		rv.Clients = orderedClients(clients, order)
		return rv, nil
	}
	if lg.WorldSeed != ck.WorldSeed {
		return nil, fmt.Errorf("replay: redo log seed %d does not match checkpoint seed %d", lg.WorldSeed, ck.WorldSeed)
	}
	if ck.RecItems > uint64(len(lg.Items)) {
		// The log is older than the checkpoint (e.g. rotated); nothing to
		// roll forward is fine, a log that ends before the checkpoint cut
		// with items missing is not distinguishable from that, so accept.
		rv.Clients = orderedClients(clients, order)
		return rv, nil
	}

	// The tail cannot be Validate()d like a standalone log: it contains
	// moves and disconnects of clients whose connects happened before the
	// cut. The checkpointed client set seeds the connected set instead.
	lc := &game.LockContext{}
	for i := int(ck.RecItems); i < len(lg.Items); i++ {
		it := &lg.Items[i]
		switch it.Kind {
		case KindTick:
			w.RunWorldFrame(time.Duration(it.DtNs).Seconds())
		case KindMove:
			rec, ok := clients[it.Client]
			if !ok {
				return nil, fmt.Errorf("replay: tail item %d: move of unknown client %d", i, it.Client)
			}
			ent := w.Ents.Get(entity.ID(rec.EntID))
			if ent == nil {
				return nil, fmt.Errorf("replay: tail item %d: client %d has no entity %d", i, it.Client, rec.EntID)
			}
			cmd := it.Cmd
			w.ExecuteMove(ent, &cmd, lc)
			if it.Seq != 0 {
				rec.LastSeq = it.Seq
				clients[it.Client] = rec
			}
		case KindConnect:
			if _, dup := clients[it.Client]; dup {
				return nil, fmt.Errorf("replay: tail item %d: client %d connects while connected", i, it.Client)
			}
			e, err := w.SpawnPlayer()
			if err != nil {
				return nil, fmt.Errorf("replay: tail item %d: %w", i, err)
			}
			if int32(e.ID) != it.Ent {
				return nil, fmt.Errorf("replay: tail item %d: connect of client %d spawned entity %d, log recorded %d",
					i, it.Client, e.ID, it.Ent)
			}
			clients[it.Client] = checkpoint.ClientRec{
				ID:     it.Client,
				EntID:  it.Ent,
				Thread: it.Thread,
				Name:   it.Name,
			}
			order = append(order, it.Client)
			rv.JoinIdx++
			if it.Client >= rv.NextClientID {
				rv.NextClientID = it.Client + 1
			}
		case KindDisconnect:
			rec, ok := clients[it.Client]
			if !ok {
				return nil, fmt.Errorf("replay: tail item %d: disconnect of unknown client %d", i, it.Client)
			}
			w.RemovePlayer(entity.ID(rec.EntID))
			delete(clients, it.Client)
		case KindMigrate:
			if rec, ok := clients[it.Client]; ok {
				rec.Thread = it.To
				clients[it.Client] = rec
			}
		case KindShed:
			// Scheduling decision; no world effect.
		case KindFrame:
			rv.Frames = it.Frame
		}
		rv.TailItems++
	}
	rv.RecItems = uint64(len(lg.Items))
	rv.Clients = orderedClients(clients, order)
	return rv, nil
}

func orderedClients(clients map[uint16]checkpoint.ClientRec, order []uint16) []checkpoint.ClientRec {
	out := make([]checkpoint.ClientRec, 0, len(clients))
	for _, id := range order {
		if c, ok := clients[id]; ok {
			out = append(out, c)
			delete(clients, id)
		}
	}
	return out
}

package replay

import (
	"fmt"

	"qserve/internal/balance"
	"qserve/internal/simserver"
)

// ToPlayback converts a validated log into the discrete-event engine's
// playback stream. Recorded client IDs become dense indices in
// first-connect order; a reconnect after a disconnect gets a fresh
// index (it is a fresh entity).
func ToPlayback(lg *Log) (*simserver.Playback, error) {
	if err := lg.Validate(); err != nil {
		return nil, err
	}
	pb := &simserver.Playback{Items: make([]simserver.PlayItem, 0, len(lg.Items))}
	idx := make(map[uint16]int)
	for i := range lg.Items {
		it := &lg.Items[i]
		switch it.Kind {
		case KindTick:
			pb.Items = append(pb.Items, simserver.PlayItem{Kind: simserver.PlayTick, DtNs: it.DtNs})
		case KindConnect:
			idx[it.Client] = pb.Clients
			pb.Items = append(pb.Items, simserver.PlayItem{
				Kind: simserver.PlayConnect, Client: pb.Clients, Name: it.Name,
			})
			pb.Clients++
		case KindMove:
			d, ok := idx[it.Client]
			if !ok {
				return nil, fmt.Errorf("replay: log item %d: move for unconnected client %d", i, it.Client)
			}
			pb.Items = append(pb.Items, simserver.PlayItem{
				Kind: simserver.PlayMove, Client: d, Seq: it.Seq, Cmd: it.Cmd,
			})
		case KindDisconnect:
			d, ok := idx[it.Client]
			if !ok {
				return nil, fmt.Errorf("replay: log item %d: disconnect for unconnected client %d", i, it.Client)
			}
			pb.Items = append(pb.Items, simserver.PlayItem{Kind: simserver.PlayDisconnect, Client: d})
			delete(idx, it.Client)
		case KindMigrate, KindShed, KindFrame:
			// Scheduling records; the DES makes its own decisions.
		}
	}
	return pb, nil
}

// ReplayDES re-runs a log through the discrete-event engine and digests
// the resulting world. threads == 0 selects the sequential DES arm. The
// DES has no wire, so only the entity-table digest is comparable with
// live replays — which is exactly the cross-engine claim: the same log
// must evolve the same world on every engine.
func ReplayDES(lg *Log, lc LiveConfig) (*Result, error) {
	pb, err := ToPlayback(lg)
	if err != nil {
		return nil, err
	}
	pol := balance.Policy{}
	if lc.Balance {
		pol = balance.Policy{Enabled: true, EveryFrame: true, MaxMigrations: 4}
	}
	res, err := simserver.Run(simserver.Config{
		Map:      lg.Map,
		Players:  pb.Clients,
		Threads:  lc.Threads,
		Seed:     lg.WorldSeed,
		Playback: pb,
		Balance:  pol,
		Stealing: lc.Stealing,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{Config: lc}
	out.TableDigest = TableDigest(res.World)
	out.EndDigestMatch = lg.HasEnd && lg.EndDigest == out.TableDigest
	out.World = res.World
	for i := range pb.Items {
		switch pb.Items[i].Kind {
		case simserver.PlayMove:
			out.Moves++
		case simserver.PlayTick:
			out.Ticks++
		}
	}
	return out, nil
}

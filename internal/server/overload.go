package server

import (
	"sort"
	"sync/atomic"
	"time"

	"qserve/internal/game"
	"qserve/internal/geom"
)

// Shed ladder levels. Each level includes the degradations of the levels
// below it.
const (
	// shedNone: full service.
	shedNone int32 = iota
	// shedFarHalf: clients far from the action centroid get snapshots at
	// half rate (every other frame).
	shedFarHalf
	// shedEntityCap: snapshots additionally cap their visible-entity set.
	shedEntityCap
	// shedRejectNew: new connection attempts are additionally refused
	// with "busy".
	shedRejectNew

	shedMaxLevel = shedRejectNew
)

// Ladder hysteresis: consecutive over-budget frames that raise the shed
// level one step, and consecutive under-budget frames that lower it.
const (
	shedTripFrames  = 8
	shedClearFrames = 16
)

// overloadEntityCap is the per-snapshot visible-entity cap at shed level
// shedEntityCap and above (Hooks.OverloadEntityCap overrides it).
const overloadEntityCap = 16

// shedController implements graceful overload degradation: when the
// frame time stays over budget for a run of consecutive frames the
// server sheds load one ladder step at a time instead of letting latency
// grow without bound, and restores service with hysteresis once frames
// come back under budget. One instance per engine; observe is called by
// the frame master only, everything else is read concurrently.
type shedController struct {
	budgetNs atomic.Int64
	level    atomic.Int32

	// Master-only run counters.
	over, under int
}

func (sc *shedController) init(cfg *Config) {
	sc.budgetNs.Store(int64(cfg.FrameBudget))
}

// setBudget adjusts the frame budget at runtime (0 disables shedding and
// resets the ladder).
func (sc *shedController) setBudget(d time.Duration) {
	sc.budgetNs.Store(int64(d))
}

// observe feeds one frame's duration to the ladder and returns the level
// now in effect. Master thread only.
func (sc *shedController) observe(frameNs int64) int32 {
	budget := sc.budgetNs.Load()
	if budget <= 0 {
		if sc.level.Load() != shedNone {
			sc.level.Store(shedNone)
			sc.over, sc.under = 0, 0
		}
		return shedNone
	}
	lvl := sc.level.Load()
	if frameNs > budget {
		sc.over++
		sc.under = 0
		if sc.over >= shedTripFrames && lvl < shedMaxLevel {
			lvl++
			sc.level.Store(lvl)
			sc.over = 0
		}
	} else {
		sc.under++
		sc.over = 0
		if sc.under >= shedClearFrames && lvl > shedNone {
			lvl--
			sc.level.Store(lvl)
			sc.under = 0
		}
	}
	return lvl
}

// current returns the level without observing a frame.
func (sc *shedController) current() int32 { return sc.level.Load() }

// markShedFar marks the half of the clients farthest from the action
// centroid as shed-far; under overload (level >= shedFarHalf) those
// clients' snapshot rates are halved — distance from the action is the
// cheapest notion of "who can tolerate a stale view". cs and dists are
// reusable scratch slices, returned for the caller to retain. Called at
// the frame barrier only.
func markShedFar(world *game.World, ct *clientTable, cs []*client, dists []float64) ([]*client, []float64) {
	cs = cs[:0]
	dists = dists[:0]
	var centroid geom.Vec3
	ct.forEach(func(c *client) {
		ent := world.Ents.Get(c.entID)
		if ent == nil || !ent.Active {
			return
		}
		cs = append(cs, c)
		dists = append(dists, 0)
		centroid = centroid.Add(ent.Origin)
	})
	if len(cs) < 2 {
		for _, c := range cs {
			c.shedFar.Store(false)
		}
		return cs, dists
	}
	centroid = centroid.Scale(1 / float64(len(cs)))
	for i, c := range cs {
		if ent := world.Ents.Get(c.entID); ent != nil {
			dists[i] = ent.Origin.Sub(centroid).Len()
		}
	}
	// Split at the median of a sorted copy: strictly-beyond-median gets
	// shed, so at least half the clients keep full rate.
	tmp := append([]float64(nil), dists...)
	sort.Float64s(tmp)
	median := tmp[len(tmp)/2]
	for i, c := range cs {
		c.shedFar.Store(dists[i] > median)
	}
	return cs, dists
}

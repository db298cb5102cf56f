package match

import (
	"qserve/internal/metrics"
)

// Stats is one match's rollup: the scheduler's view (frames dispatched,
// step-duration and lateness percentiles) plus the engine's own
// execution-time breakdown summed over its threads.
type Stats struct {
	Name    string
	Evicted bool
	Active  bool // clients connected or traffic seen on the last frame

	Frames   uint64 // frames the scheduler dispatched
	Clients  int
	Replies  int64
	BytesIn  int64
	BytesOut int64

	StepP50Ms float64 // frame step duration percentiles
	StepP99Ms float64
	LateP99Ms float64 // dispatch lateness past the deadline

	Breakdown metrics.Breakdown
}

// Aggregate is the manager-level rollup across every match.
type Aggregate struct {
	Matches int // matches ever admitted
	Live    int
	ActiveM int
	Evicted int

	Frames  uint64
	Replies int64
	Clients int

	StepHist metrics.LatencyHist
	LateHist metrics.LatencyHist

	Breakdown metrics.Breakdown

	// ScratchMade is the shared pool's high-water mark: how many frame
	// scratch sets the whole process ever needed simultaneously.
	ScratchMade int
}

// Stats returns per-match rollups in admission order, evicted matches
// included. Engine-derived fields (clients, replies, breakdowns) are
// only stable once no match can be stepping — call after Stop.
func (m *Manager) Stats() []Stats {
	m.mu.Lock()
	matches := make([]*Match, len(m.all))
	copy(matches, m.all)
	m.mu.Unlock()

	out := make([]Stats, 0, len(matches))
	for _, mt := range matches {
		m.mu.Lock()
		st := Stats{
			Name:      mt.name,
			Evicted:   mt.evicted,
			Active:    mt.active,
			Frames:    mt.frames,
			StepP50Ms: mt.stepHist.P50(),
			StepP99Ms: mt.stepHist.P99(),
			LateP99Ms: mt.lateHist.P99(),
		}
		m.mu.Unlock()
		st.Clients = mt.eng.NumClients()
		st.Replies = mt.eng.Replies()
		st.BytesIn = mt.eng.BytesIn()
		st.BytesOut = mt.eng.BytesOut()
		for _, bd := range mt.eng.Breakdowns() {
			st.Breakdown.Add(&bd)
		}
		out = append(out, st)
	}
	return out
}

// AggregateStats combines every match into one manager-level view. Same
// stability caveat as Stats: call after Stop.
func (m *Manager) AggregateStats() Aggregate {
	var ag Aggregate
	m.mu.Lock()
	matches := make([]*Match, len(m.all))
	copy(matches, m.all)
	for _, mt := range matches {
		ag.Matches++
		if !mt.evicted {
			ag.Live++
		} else {
			ag.Evicted++
		}
		if mt.active {
			ag.ActiveM++
		}
		ag.Frames += mt.frames
		ag.StepHist.Merge(&mt.stepHist)
		ag.LateHist.Merge(&mt.lateHist)
	}
	m.mu.Unlock()
	for _, mt := range matches {
		ag.Replies += mt.eng.Replies()
		ag.Clients += mt.eng.NumClients()
		for _, bd := range mt.eng.Breakdowns() {
			ag.Breakdown.Add(&bd)
		}
	}
	ag.ScratchMade = m.cfg.Shared.Made()
	return ag
}

// StepHist returns a copy of one match's step-duration histogram
// (scheduler-side state, safe while running).
func (mt *Match) StepHist(m *Manager) metrics.LatencyHist {
	m.mu.Lock()
	defer m.mu.Unlock()
	return mt.stepHist
}

package metrics

// FrameRecord captures one server frame's activity for the §4.2/§5
// analyses: how many requests each thread processed and which leaf
// areanodes each thread locked. Leaf sets are bitmasks over leaf
// ordinals, which caps instrumented trees at 64 leaves (depth 6) — ample
// for the paper's 3..63-node sweep.
type FrameRecord struct {
	Frame        uint64
	Participants int
	// RequestsByThread[i] is the number of requests thread i processed
	// this frame (0 for threads that missed the frame).
	RequestsByThread []int
	// LeafLocksByThread[i] is the set of leaf ordinals thread i locked.
	LeafLocksByThread []uint64
	// LeafLockOps counts total leaf lock acquisitions this frame,
	// including re-locks.
	LeafLockOps int
	// ExecNsByThread[i] is the execute-phase (CompExec) time thread i
	// spent this frame — the quantity the load balancer equalizes.
	ExecNsByThread []int64
	// Migrations is how many clients the balancer moved at this frame's
	// barrier.
	Migrations int
}

// FrameLog accumulates frame records and derives the paper's per-frame
// statistics. Not safe for concurrent use; engines log from the master
// thread at frame end.
type FrameLog struct {
	Frames []FrameRecord
	leaves int
}

// NewFrameLog creates a log for a tree with the given leaf count.
func NewFrameLog(numLeaves int) *FrameLog {
	return &FrameLog{leaves: numLeaves}
}

// Append records one frame.
func (l *FrameLog) Append(rec FrameRecord) { l.Frames = append(l.Frames, rec) }

// NumLeaves returns the instrumented leaf count.
func (l *FrameLog) NumLeaves() int { return l.leaves }

// RequestsPerThreadPerFrame returns the mean requests processed per
// participating thread per frame — the §5.2 "4, 2.5, and 1.5 requests
// per thread" statistic.
func (l *FrameLog) RequestsPerThreadPerFrame() float64 {
	var w Welford
	for _, f := range l.Frames {
		for _, r := range f.RequestsByThread {
			w.Add(float64(r))
		}
	}
	return w.Mean()
}

// ImbalanceStats returns the mean and standard deviation of the per-frame
// spread (max−min) in requests per thread — the paper's "one thread
// services 3.3 more requests than the other ... standard deviation is
// 2.5" measurement. Frames with fewer than two threads are skipped.
func (l *FrameLog) ImbalanceStats() (mean, stddev float64) {
	var diffs []float64
	for _, f := range l.Frames {
		if len(f.RequestsByThread) < 2 {
			continue
		}
		mn, mx := f.RequestsByThread[0], f.RequestsByThread[0]
		for _, r := range f.RequestsByThread[1:] {
			if r < mn {
				mn = r
			}
			if r > mx {
				mx = r
			}
		}
		diffs = append(diffs, float64(mx-mn))
	}
	return meanOf(diffs), stdDevOf(diffs)
}

// SharedLeafFraction returns the average fraction (0..1) of the world's
// leaves locked by at least two distinct threads within the same frame —
// Fig. 7(c).
func (l *FrameLog) SharedLeafFraction() float64 {
	if l.leaves == 0 {
		return 0
	}
	var w Welford
	for _, f := range l.Frames {
		var once, twice uint64
		for _, set := range f.LeafLocksByThread {
			twice |= once & set
			once |= set
		}
		w.Add(float64(popcount(twice)) / float64(l.leaves))
	}
	return w.Mean()
}

// TouchedLeafFraction returns the average fraction of leaves locked by
// any thread per frame — the §5.1 "region of the map accessed per frame"
// measurement.
func (l *FrameLog) TouchedLeafFraction() float64 {
	if l.leaves == 0 {
		return 0
	}
	var w Welford
	for _, f := range l.Frames {
		var any uint64
		for _, set := range f.LeafLocksByThread {
			any |= set
		}
		w.Add(float64(popcount(any)) / float64(l.leaves))
	}
	return w.Mean()
}

// LockOpsPerLeafPerFrame returns the average number of leaf lock
// operations per leaf per frame — the §5.1 "each leaf is locked between
// zero and 20 times" measurement.
func (l *FrameLog) LockOpsPerLeafPerFrame() float64 {
	if l.leaves == 0 {
		return 0
	}
	var w Welford
	for _, f := range l.Frames {
		w.Add(float64(f.LeafLockOps) / float64(l.leaves))
	}
	return w.Mean()
}

// ExecLoadRatio aggregates execute-phase time per thread across the whole
// run and returns max/mean over the thread slots — the skew statistic the
// load balancer targets. A perfectly balanced run returns 1; a run where
// one thread does all the exec work on t threads returns t. Returns 0
// when no exec time was recorded.
func (l *FrameLog) ExecLoadRatio() float64 {
	var per []int64
	for _, f := range l.Frames {
		for i, ns := range f.ExecNsByThread {
			for len(per) <= i {
				per = append(per, 0)
			}
			per[i] += ns
		}
	}
	if len(per) == 0 {
		return 0
	}
	var total, max int64
	for _, v := range per {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(per))
	return float64(max) / mean
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// ResponseStats aggregates the paper's two high-level metrics: response
// rate (replies/sec across the run) and response time (request→reply
// latency averaged over all clients).
type ResponseStats struct {
	Replies   int64
	DurationS float64
	Latency   Welford     // seconds
	Hist      LatencyHist // percentile view of the same samples
}

// Rate returns replies per second.
func (r *ResponseStats) Rate() float64 {
	if r.DurationS == 0 {
		return 0
	}
	return float64(r.Replies) / r.DurationS
}

// MeanLatencyMs returns the average response time in milliseconds.
func (r *ResponseStats) MeanLatencyMs() float64 { return r.Latency.Mean() * 1000 }

// Record adds one response-time sample in seconds to both views.
func (r *ResponseStats) Record(seconds float64) {
	r.Latency.Add(seconds)
	r.Hist.Record(seconds)
}

// P95Ms returns the 95th-percentile response time in milliseconds.
func (r *ResponseStats) P95Ms() float64 { return r.Hist.P95() }

// Merge combines another accumulator (for multi-client aggregation).
func (r *ResponseStats) Merge(o ResponseStats) {
	r.Replies += o.Replies
	if o.DurationS > r.DurationS {
		r.DurationS = o.DurationS
	}
	r.Latency.Merge(o.Latency)
	r.Hist.Merge(&o.Hist)
}

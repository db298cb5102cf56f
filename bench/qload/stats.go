//go:build linux

package main

import (
	"math"
	"slices"
)

// violation classifies what the reply oracle can find wrong.
type violation uint8

const (
	vNone       violation = iota
	vDecode               // datagram did not decode
	vUnexpected           // decoded, but not a message a playing client gets
	vOrder                // AckSeq or Frame went backwards
	vContinuity           // BaseFrame does not match the table the client holds
	vDelta                // ApplyDelta refused the delta
	vBounds               // You.Origin outside the map
	vStuck                // too many clients never moved during the window
	numViolations
)

var violationNames = [numViolations]string{
	vDecode: "decode", vUnexpected: "unexpected_message", vOrder: "order",
	vContinuity: "delta_continuity", vDelta: "apply_delta", vBounds: "out_of_bounds",
	vStuck: "never_moved",
}

// loadStats is what the generator counts over one run.
type loadStats struct {
	lat        []int64 // ns, answered moves that were sent/due in the window
	late       []int64 // ns, open loop: how long after its due time a move left
	replies    int64   // answering snapshots that arrived in the window
	moves      int64   // moves sent (closed) or due (open) in the window
	unanswered int64   // of those, not answered within answerTimeoutNs
	resends    int64   // closed loop: moves sent because nothing came back
	sendErrs   int64
	violations [numViolations]int64
}

func (s *loadStats) invalid() int64 {
	var n int64
	for _, v := range s.violations {
		n += v
	}
	return n
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. No interpolation, so it is always a value that was
// measured.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// failCounts is the numerator and denominator of fail_ratio: everything
// the run attempted against everything that went wrong.
type failCounts struct {
	attempted int64
	failed    int64
}

// countFailures implements the fail_ratio definition: moves not answered
// in time, replies (or clients) the oracle rejected, and failed connects,
// over moves plus connects attempted.
func countFailures(s *loadStats, connects, connectFails int64) failCounts {
	return failCounts{
		attempted: s.moves + connects,
		failed:    s.unanswered + s.invalid() + connectFails,
	}
}

func (f failCounts) ratio() float64 {
	if f.attempted == 0 {
		return 1
	}
	return float64(f.failed) / float64(f.attempted)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

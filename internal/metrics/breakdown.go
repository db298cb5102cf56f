// Package metrics defines the measurement vocabulary of the reproduction:
// the per-thread execution-time breakdown from the paper's §4 ("Exec",
// "Lock", "Receive", "Reply", "Intra-frame wait", "Inter-frame wait",
// "Idle", plus the world-update component), lock-time attribution to leaf
// versus parent areanodes, per-frame activity records, and the response
// rate/time summaries used to compare server configurations. Both
// execution engines — the live goroutine server and the virtual-time
// simulator — emit these structures, so every experiment renders through
// the same reporting code.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Component indexes the execution-time breakdown, matching the paper's
// definitions verbatim (§4, "Our execution time breakdowns ...").
type Component int

const (
	// CompExec is time spent processing requests (move execution), net of
	// lock overhead.
	CompExec Component = iota
	// CompLock is lock synchronization overhead during request
	// processing (areanode locking; all other lock overheads are <2% and
	// folded into their phases, as in the paper).
	CompLock
	// CompRecv is time receiving and parsing requests.
	CompRecv
	// CompReply is the full reply processing phase: forming and sending
	// replies.
	CompReply
	// CompIntraWait is time waiting at the barrier between request and
	// reply phases for other threads to drain their queues.
	CompIntraWait
	// CompInterWait is time waiting between frames: for the master's
	// world update, or for the current frame to end after missing it.
	CompInterWait
	// CompIdle is time blocked in select with no work.
	CompIdle
	// CompWorld is the world physics update (master thread only).
	CompWorld

	// NumComponents is the breakdown arity.
	NumComponents
)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case CompExec:
		return "exec"
	case CompLock:
		return "lock"
	case CompRecv:
		return "receive"
	case CompReply:
		return "reply"
	case CompIntraWait:
		return "intra-wait"
	case CompInterWait:
		return "inter-wait"
	case CompIdle:
		return "idle"
	case CompWorld:
		return "world"
	default:
		return fmt.Sprintf("component(%d)", int(c))
	}
}

// Breakdown accumulates nanoseconds per component for one thread.
type Breakdown struct {
	Ns [NumComponents]int64

	// Lock time attribution for Fig. 7(a).
	LeafLockNs   int64
	ParentLockNs int64

	// Reply-phase volume counters: the T/Tx phase dominates frame time at
	// high player counts (§4, Fig. 4–5), so reports pair its time share
	// with how much data it moved and how often its scratch buffers had to
	// grow (steady state: zero — the pipeline is allocation-free).
	ReplyBytes     int64
	ReplyDatagrams int64
	ReplyAllocs    int64
	// ReplySendCalls counts the send calls that carried the reply
	// datagrams: one per datagram through a plain Conn, one per sendmmsg
	// on a Linux UDP socket. ReplyDatagrams over it is the batching factor.
	ReplySendCalls int64

	// Reply sub-phase timers (both inside CompReply, not additional
	// components): SnapBuildNs is this thread's share of the shared
	// per-frame visibility-index/state-cache build — for parallel engines
	// it is acquire wall time, including any wait for peers' shards —
	// and SnapMergeNs is time assembling per-client visible sets from the
	// index (or the naive scan when the index is disabled). Their ratio
	// to CompReply shows how much of the reply phase the frame-coherent
	// cache removed from the per-client path.
	SnapBuildNs int64
	SnapMergeNs int64

	// ExecCmds counts move commands executed in the request phase. The
	// load balancer divides CompExec time by it to reason about per-client
	// cost, and reports use it to normalize exec time per command.
	ExecCmds int64

	// Work-stealing execution counters: Steals is the number of requests
	// this thread executed on behalf of another thread's client, StealsNs
	// the execution time it spent doing so (a subset of CompExec — stolen
	// work is still exec time), and StealConflicts the number of times a
	// steal attempt parked because the request's region was contended
	// (the conflict-aware scheduler then picked different work).
	Steals         int64
	StealsNs       int64
	StealConflicts int64

	// Robustness counters from the failure-model layer: panics contained
	// by the per-thread recover wrappers, replies and entities shed by the
	// overload ladder, connection attempts refused while overloaded, and
	// datagrams lost to mux receive-queue overflow.
	PanicsRecovered int64
	RepliesShed     int64
	EntitiesCapped  int64
	BusyRejects     int64
	MuxDrops        int64

	// Durability counters (DESIGN.md §12): checkpoints captured at the
	// reply barrier and their serialization time (barrier-side only — the
	// file write happens off-thread), bytes split by full vs. delta
	// images so the delta compression ratio is reportable, captures
	// skipped because the flusher still owned every buffer, and the
	// one-time cost of crash recovery (restore + redo-log tail) when the
	// engine was seeded from a checkpoint.
	Checkpoints          int64
	CheckpointNs         int64
	CheckpointBytes      int64
	CheckpointFullBytes  int64
	CheckpointDeltaBytes int64
	CheckpointSkips      int64
	RecoveryNs           int64
}

// Add accumulates o into b.
func (b *Breakdown) Add(o *Breakdown) {
	for i := range b.Ns {
		b.Ns[i] += o.Ns[i]
	}
	b.LeafLockNs += o.LeafLockNs
	b.ParentLockNs += o.ParentLockNs
	b.ReplyBytes += o.ReplyBytes
	b.ReplyDatagrams += o.ReplyDatagrams
	b.ReplyAllocs += o.ReplyAllocs
	b.ReplySendCalls += o.ReplySendCalls
	b.SnapBuildNs += o.SnapBuildNs
	b.SnapMergeNs += o.SnapMergeNs
	b.ExecCmds += o.ExecCmds
	b.Steals += o.Steals
	b.StealsNs += o.StealsNs
	b.StealConflicts += o.StealConflicts
	b.PanicsRecovered += o.PanicsRecovered
	b.RepliesShed += o.RepliesShed
	b.EntitiesCapped += o.EntitiesCapped
	b.BusyRejects += o.BusyRejects
	b.MuxDrops += o.MuxDrops
	b.Checkpoints += o.Checkpoints
	b.CheckpointNs += o.CheckpointNs
	b.CheckpointBytes += o.CheckpointBytes
	b.CheckpointFullBytes += o.CheckpointFullBytes
	b.CheckpointDeltaBytes += o.CheckpointDeltaBytes
	b.CheckpointSkips += o.CheckpointSkips
	b.RecoveryNs += o.RecoveryNs
}

// Charge adds ns to a component.
func (b *Breakdown) Charge(c Component, ns int64) { b.Ns[c] += ns }

// ChargeLock adds lock wait+overhead time, attributed to leaf or parent
// areanode locking.
func (b *Breakdown) ChargeLock(ns int64, leaf bool) {
	b.Ns[CompLock] += ns
	if leaf {
		b.LeafLockNs += ns
	} else {
		b.ParentLockNs += ns
	}
}

// Total returns the sum over all components.
func (b *Breakdown) Total() int64 {
	var t int64
	for _, v := range b.Ns {
		t += v
	}
	return t
}

// NonIdle returns the total excluding idle time.
func (b *Breakdown) NonIdle() int64 { return b.Total() - b.Ns[CompIdle] }

// Busy returns time doing useful or overhead work: total minus idle and
// both wait components — the paper's "workload" for balance analysis
// ("including all components of execution time except for idle and wait
// times").
func (b *Breakdown) Busy() int64 {
	return b.Total() - b.Ns[CompIdle] - b.Ns[CompIntraWait] - b.Ns[CompInterWait]
}

// Percent returns component c as a percentage of the total (0 when the
// total is zero).
func (b *Breakdown) Percent(c Component) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(b.Ns[c]) / float64(t)
}

// String renders a compact single-line summary.
func (b *Breakdown) String() string {
	var parts []string
	for c := Component(0); c < NumComponents; c++ {
		if b.Ns[c] != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.1f%%", c, b.Percent(c)))
		}
	}
	return strings.Join(parts, " ")
}

// Scale multiplies every component by f (used to normalize runs of
// different durations).
func (b *Breakdown) Scale(f float64) {
	for i := range b.Ns {
		b.Ns[i] = int64(float64(b.Ns[i]) * f)
	}
	b.LeafLockNs = int64(float64(b.LeafLockNs) * f)
	b.ParentLockNs = int64(float64(b.ParentLockNs) * f)
	b.ReplyBytes = int64(float64(b.ReplyBytes) * f)
	b.ReplyDatagrams = int64(float64(b.ReplyDatagrams) * f)
	b.ReplyAllocs = int64(float64(b.ReplyAllocs) * f)
	b.ReplySendCalls = int64(float64(b.ReplySendCalls) * f)
	b.SnapBuildNs = int64(float64(b.SnapBuildNs) * f)
	b.SnapMergeNs = int64(float64(b.SnapMergeNs) * f)
	b.ExecCmds = int64(float64(b.ExecCmds) * f)
	b.Steals = int64(float64(b.Steals) * f)
	b.StealsNs = int64(float64(b.StealsNs) * f)
	b.StealConflicts = int64(float64(b.StealConflicts) * f)
	b.PanicsRecovered = int64(float64(b.PanicsRecovered) * f)
	b.RepliesShed = int64(float64(b.RepliesShed) * f)
	b.EntitiesCapped = int64(float64(b.EntitiesCapped) * f)
	b.BusyRejects = int64(float64(b.BusyRejects) * f)
	b.MuxDrops = int64(float64(b.MuxDrops) * f)
	b.Checkpoints = int64(float64(b.Checkpoints) * f)
	b.CheckpointNs = int64(float64(b.CheckpointNs) * f)
	b.CheckpointBytes = int64(float64(b.CheckpointBytes) * f)
	b.CheckpointFullBytes = int64(float64(b.CheckpointFullBytes) * f)
	b.CheckpointDeltaBytes = int64(float64(b.CheckpointDeltaBytes) * f)
	b.CheckpointSkips = int64(float64(b.CheckpointSkips) * f)
	b.RecoveryNs = int64(float64(b.RecoveryNs) * f)
}

// DeltaRatio returns delta-checkpoint bytes as a fraction of full-
// checkpoint bytes — how much the incremental encoding compresses the
// durability stream (0 when no full image was written).
func (b *Breakdown) DeltaRatio() float64 {
	if b.CheckpointFullBytes == 0 {
		return 0
	}
	return float64(b.CheckpointDeltaBytes) / float64(b.CheckpointFullBytes)
}

// BytesPerReply returns the average datagram size of the reply phase, or
// 0 when no replies were sent.
func (b *Breakdown) BytesPerReply() float64 {
	if b.ReplyDatagrams == 0 {
		return 0
	}
	return float64(b.ReplyBytes) / float64(b.ReplyDatagrams)
}

// MergeThreads averages per-thread breakdowns into the "average execution
// time breakdown" the paper's figures plot.
func MergeThreads(threads []Breakdown) Breakdown {
	var avg Breakdown
	if len(threads) == 0 {
		return avg
	}
	for i := range threads {
		avg.Add(&threads[i])
	}
	n := float64(len(threads))
	avg.Scale(1 / n)
	return avg
}

// Dur formats nanoseconds as a duration string for reports.
func Dur(ns int64) string { return time.Duration(ns).Truncate(time.Microsecond).String() }

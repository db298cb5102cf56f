package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestBreakdownAccounting(t *testing.T) {
	var b Breakdown
	b.Charge(CompExec, 600)
	b.Charge(CompRecv, 100)
	b.Charge(CompReply, 200)
	b.Charge(CompIdle, 100)
	b.ChargeLock(50, true)
	b.ChargeLock(25, false)
	b.Charge(CompIntraWait, 10)
	b.Charge(CompInterWait, 15)

	if got := b.Total(); got != 600+100+200+100+75+10+15 {
		t.Errorf("Total = %d", got)
	}
	if got := b.NonIdle(); got != b.Total()-100 {
		t.Errorf("NonIdle = %d", got)
	}
	if got := b.Busy(); got != b.Total()-100-10-15 {
		t.Errorf("Busy = %d", got)
	}
	if b.Ns[CompLock] != 75 || b.LeafLockNs != 50 || b.ParentLockNs != 25 {
		t.Errorf("lock attribution: %d/%d/%d", b.Ns[CompLock], b.LeafLockNs, b.ParentLockNs)
	}
	if p := b.Percent(CompExec); math.Abs(p-100*600/1100.0) > 1e-9 {
		t.Errorf("Percent = %v", p)
	}
}

func TestBreakdownAddAndScale(t *testing.T) {
	var a, b Breakdown
	a.Charge(CompExec, 100)
	a.ChargeLock(40, true)
	b.Charge(CompExec, 50)
	b.ChargeLock(10, false)
	a.Add(&b)
	if a.Ns[CompExec] != 150 || a.Ns[CompLock] != 50 || a.LeafLockNs != 40 || a.ParentLockNs != 10 {
		t.Errorf("Add: %+v", a)
	}
	a.Scale(0.5)
	if a.Ns[CompExec] != 75 || a.LeafLockNs != 20 {
		t.Errorf("Scale: %+v", a)
	}
}

func TestMergeThreads(t *testing.T) {
	threads := make([]Breakdown, 4)
	for i := range threads {
		threads[i].Charge(CompExec, int64(100*(i+1)))
	}
	avg := MergeThreads(threads)
	if avg.Ns[CompExec] != 250 {
		t.Errorf("avg exec = %d", avg.Ns[CompExec])
	}
	if empty := MergeThreads(nil); empty.Total() != 0 {
		t.Error("empty merge not zero")
	}
}

func TestComponentStrings(t *testing.T) {
	for c := Component(0); c < NumComponents; c++ {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "component(") {
			t.Errorf("component %d stringer: %q", c, s)
		}
	}
	var b Breakdown
	b.Charge(CompExec, 100)
	if !strings.Contains(b.String(), "exec") {
		t.Errorf("breakdown string: %q", b.String())
	}
}

func TestFrameLogRequestsAndImbalance(t *testing.T) {
	l := NewFrameLog(16)
	// Two threads: 5 and 2 requests, then 3 and 3.
	l.Append(FrameRecord{Frame: 1, RequestsByThread: []int{5, 2}})
	l.Append(FrameRecord{Frame: 2, RequestsByThread: []int{3, 3}})
	if got := l.RequestsPerThreadPerFrame(); math.Abs(got-3.25) > 1e-9 {
		t.Errorf("requests/thread/frame = %v", got)
	}
	mean, sd := l.ImbalanceStats()
	if math.Abs(mean-1.5) > 1e-9 {
		t.Errorf("imbalance mean = %v", mean)
	}
	if math.Abs(sd-1.5) > 1e-9 {
		t.Errorf("imbalance stddev = %v", sd)
	}
}

func TestFrameLogLeafSharing(t *testing.T) {
	l := NewFrameLog(4)
	// Frame 1: threads lock {0,1} and {1,2}: leaf 1 shared -> 1/4.
	l.Append(FrameRecord{
		LeafLocksByThread: []uint64{0b0011, 0b0110},
		LeafLockOps:       6,
	})
	// Frame 2: disjoint {0} and {3}: none shared.
	l.Append(FrameRecord{
		LeafLocksByThread: []uint64{0b0001, 0b1000},
		LeafLockOps:       2,
	})
	if got := l.SharedLeafFraction(); math.Abs(got-0.125) > 1e-9 {
		t.Errorf("shared fraction = %v", got)
	}
	if got := l.TouchedLeafFraction(); math.Abs(got-(0.75+0.5)/2) > 1e-9 {
		t.Errorf("touched fraction = %v", got)
	}
	if got := l.LockOpsPerLeafPerFrame(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("lock ops per leaf = %v", got)
	}
}

func TestFrameLogEmpty(t *testing.T) {
	l := NewFrameLog(0)
	if l.SharedLeafFraction() != 0 || l.TouchedLeafFraction() != 0 || l.LockOpsPerLeafPerFrame() != 0 {
		t.Error("zero-leaf log should report zeros")
	}
	l2 := NewFrameLog(8)
	m, sd := l2.ImbalanceStats()
	if m != 0 || sd != 0 {
		t.Error("empty log imbalance should be zero")
	}
}

func TestResponseStats(t *testing.T) {
	var r ResponseStats
	r.Replies = 3000
	r.DurationS = 10
	r.Latency.Add(0.050)
	r.Latency.Add(0.150)
	if r.Rate() != 300 {
		t.Errorf("rate = %v", r.Rate())
	}
	if got := r.MeanLatencyMs(); math.Abs(got-100) > 1e-9 {
		t.Errorf("latency = %v ms", got)
	}
	var o ResponseStats
	o.Replies = 1000
	o.DurationS = 8
	o.Latency.Add(0.1)
	r.Merge(o)
	if r.Replies != 4000 || r.DurationS != 10 || r.Latency.N() != 3 {
		t.Errorf("merge: %+v", r)
	}
	var zero ResponseStats
	if zero.Rate() != 0 {
		t.Error("zero-duration rate")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "Demo", Header: []string{"players", "rate", "note"}}
	tb.AddRow("64", "812.5", "ok")
	tb.AddRow("128", "423.8", "saturated")
	out := tb.Render()
	if !strings.Contains(out, "## Demo") || !strings.Contains(out, "players") {
		t.Errorf("render missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: header and rows share the first column width.
	if !strings.Contains(lines[3], "64") || !strings.Contains(lines[4], "423.8") {
		t.Errorf("rows wrong:\n%s", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if Pct(12.345) != "12.3%" || F1(1.25) != "1.2" || F2(1.257) != "1.26" {
		t.Error("format helpers wrong")
	}
	if Dur(1500000) == "" {
		t.Error("Dur empty")
	}
}

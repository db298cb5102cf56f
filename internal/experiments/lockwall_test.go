package experiments

import (
	"testing"

	"qserve/internal/metrics"
)

// TestLockwallGate is the lock-wall regression gate (`make lockwall`, CI):
// on the paper's worst case — 8 threads, 160 players, conservative
// locking — the work-stealing scheduler must cut the lock-stall share by
// at least a quarter while the response rate stays within 1% of the
// static schedule's. One virtual second at the default seed, the
// configuration `qbench -exp lockwall -dur 1` prints.
func TestLockwallGate(t *testing.T) {
	o := Options{DurationS: 1}
	o.fill()
	static, stolen, err := lockwallArms(o, 160, 8)
	if err != nil {
		t.Fatal(err)
	}
	before, after := static.Avg.Percent(metrics.CompLock), stolen.Avg.Percent(metrics.CompLock)
	t.Logf("8T lock share %.1f%% -> %.1f%%; response rate %.1f -> %.1f/s",
		before, after, static.ResponseRate(), stolen.ResponseRate())
	if before <= 0 {
		t.Fatal("static arm shows no lock time: the lock wall under test is missing")
	}
	if red := 100 * (before - after) / before; red < 25 {
		t.Errorf("lock-share reduction %.0f%% < 25%%", red)
	}
	if stolen.ResponseRate() < 0.99*static.ResponseRate() {
		t.Errorf("response rate fell from %.1f to %.1f/s", static.ResponseRate(), stolen.ResponseRate())
	}
}

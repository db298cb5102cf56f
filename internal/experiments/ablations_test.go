package experiments

import (
	"strings"
	"testing"

	"qserve/internal/locking"
	"qserve/internal/simserver"
)

func TestAblationTablesRender(t *testing.T) {
	t.Parallel()
	for _, tb := range result(t, "ablations").Tables {
		if !strings.Contains(tb.Title, "Ablation") || len(tb.Rows) < 2 {
			t.Errorf("ablation table malformed:\n%s", tb.Render())
		}
	}
}

func TestRegionAssignmentReducesSharing(t *testing.T) {
	t.Parallel()
	block := metric(t, "ablations.shared_leaf_pct/assign/block/144")
	region := metric(t, "ablations.shared_leaf_pct/assign/region-dynamic/144")
	// Spatially clustered assignment must not increase cross-thread leaf
	// sharing, and typically reduces it.
	if region > block*1.1 {
		t.Errorf("region policy increased sharing: block=%.1f%% region=%.1f%%", block, region)
	}
}

func TestBatchingThickensFrames(t *testing.T) {
	t.Parallel()
	if plain, batched := metric(t, "ablations.frames/batch/0us"), metric(t, "ablations.frames/batch/1000us"); batched >= plain {
		t.Errorf("batching did not reduce frame count: %.0f vs %.0f", batched, plain)
	}
	if metric(t, "ablations.req_per_thread_frame/batch/1000us") <= metric(t, "ablations.req_per_thread_frame/batch/0us") {
		t.Error("batching did not thicken frames")
	}
	// The latency cost is real: batched response time is higher.
	if plain, batched := metric(t, "ablations.resp_ms/batch/0us"), metric(t, "ablations.resp_ms/batch/1000us"); batched <= plain {
		t.Errorf("batching should cost latency: %.1f vs %.1f", batched, plain)
	}
}

// TestIdealMachineOutperformsPaperMachine runs the machine-model pair
// under optimized locking. AblationSMT runs it under conservative
// locking only, where the lock wall would decide the comparison.
func TestIdealMachineOutperformsPaperMachine(t *testing.T) {
	t.Parallel()
	mk := func(cores int, smt, mem float64) *simserver.Result {
		cfg := baseConfig(quickOpts(), 160, 8, locking.Optimized{})
		cfg.Machine.Cores = cores
		cfg.Machine.SMTPenalty = smt
		cfg.Machine.MemContention = mem
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	paper := mk(4, 1.6, 0.28)
	ideal := mk(8, 1.0, 0)
	if ideal.ResponseTimeMs() > paper.ResponseTimeMs() {
		t.Errorf("ideal machine slower than paper machine: %.1f vs %.1f",
			ideal.ResponseTimeMs(), paper.ResponseTimeMs())
	}
	// The busy time per thread must drop without contention inflation.
	if ideal.Avg.Busy() >= paper.Avg.Busy() {
		t.Errorf("ideal machine busy %.0f >= paper %.0f",
			float64(ideal.Avg.Busy()), float64(paper.Avg.Busy()))
	}
}

func TestAblationsAggregate(t *testing.T) {
	t.Parallel()
	if n := len(result(t, "ablations").Tables); n != 4 {
		t.Errorf("ablations report %d tables, want one per study (4)", n)
	}
}

func TestAssignPolicyString(t *testing.T) {
	for _, p := range []simserver.AssignPolicy{
		simserver.AssignBlock, simserver.AssignRoundRobin, simserver.AssignRegion,
	} {
		if p.String() == "unknown" || p.String() == "" {
			t.Errorf("policy %d stringer broken", p)
		}
	}
	if simserver.AssignPolicy(99).String() != "unknown" {
		t.Error("unknown policy stringer")
	}
}

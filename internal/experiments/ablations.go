package experiments

import (
	"fmt"

	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/simserver"
)

// The ablation studies report as one registry entry, so their metrics
// read ablations.<quantity>/<study>/<config>.

// AblationAssignment evaluates the paper's §5.1 future-work proposal:
// "dynamically assigning threads to players taking into account the
// region they are located may reduce contention". It compares the static
// block policy, static round-robin, and periodic region-based
// repartitioning under the optimized locking scheme (whole-map
// conservative locks make player placement irrelevant).
func AblationAssignment(o Options) (Result, error) {
	o.fill()
	var r Result
	t := metrics.Table{
		Title: "Ablation (paper §5.1 future work): player→thread assignment policy",
		Header: []string{
			"policy", "players", "lock%", "leaf-shared", "intra-wait", "resp ms",
		},
	}
	for _, policy := range []simserver.AssignPolicy{
		simserver.AssignBlock, simserver.AssignRoundRobin, simserver.AssignRegion,
	} {
		for _, players := range []int{128, 144} {
			o.Progress("ablation-assign: %v players=%d", policy, players)
			cfg := baseConfig(o, players, 4, locking.Optimized{})
			cfg.Assign = policy
			res, err := run(cfg)
			if err != nil {
				return Result{}, err
			}
			lock, shared := res.Avg.Percent(metrics.CompLock), 100*res.FrameLog.SharedLeafFraction()
			intra := res.Avg.Percent(metrics.CompIntraWait)
			t.AddRow(
				policy.String(),
				fmt.Sprint(players),
				metrics.Pct(lock),
				metrics.Pct(shared),
				metrics.Pct(intra),
				metrics.F1(res.ResponseTimeMs()),
			)
			label := fmt.Sprintf("assign/%v/%d", policy, players)
			r.add("ablations.lock_pct/"+label, "%", lock)
			r.add("ablations.shared_leaf_pct/"+label, "%", shared)
			r.add("ablations.intra-wait_pct/"+label, "%", intra)
			r.addRun("ablations", label, res)
		}
	}
	r.Tables = []metrics.Table{t}
	return r, nil
}

// AblationBatching evaluates the §5.2 future-work proposal: "the frame
// master thread can wait for a period of time before starting the
// frame". Batching thickens frames (more requests and participants per
// frame) at the cost of added response latency.
func AblationBatching(o Options) (Result, error) {
	o.fill()
	var r Result
	t := metrics.Table{
		Title: "Ablation (paper §5.2 future work): request batching delay",
		Header: []string{
			"batch", "frames", "req/thread/frame", "intra-wait", "inter-wait", "resp ms",
		},
	}
	for _, batchUs := range []int64{0, 250, 500, 1000, 2000} {
		o.Progress("ablation-batch: %dus", batchUs)
		cfg := baseConfig(o, 128, 4, locking.Conservative{})
		cfg.BatchDelayNs = batchUs * 1000
		res, err := run(cfg)
		if err != nil {
			return Result{}, err
		}
		rpf := res.FrameLog.RequestsPerThreadPerFrame()
		intra, inter := res.Avg.Percent(metrics.CompIntraWait), res.Avg.Percent(metrics.CompInterWait)
		t.AddRow(
			fmt.Sprintf("%dus", batchUs),
			fmt.Sprint(res.Frames),
			metrics.F2(rpf),
			metrics.Pct(intra),
			metrics.Pct(inter),
			metrics.F1(res.ResponseTimeMs()),
		)
		label := fmt.Sprintf("batch/%dus", batchUs)
		r.add("ablations.frames/"+label, "count", float64(res.Frames))
		r.add("ablations.req_per_thread_frame/"+label, "count", rpf)
		r.add("ablations.intra-wait_pct/"+label, "%", intra)
		r.add("ablations.inter-wait_pct/"+label, "%", inter)
		r.addRun("ablations", label, res)
	}
	r.Tables = []metrics.Table{t}
	return r, nil
}

// AblationSMT isolates the machine model: the same 8-thread workload on
// the paper's 4-core SMT machine versus a hypothetical 8 true cores and
// a contention-free memory system, quantifying how much of the "8
// threads do not improve performance" result each hardware limit
// contributes.
func AblationSMT(o Options) (Result, error) {
	o.fill()
	var r Result
	t := metrics.Table{
		Title:  "Ablation: machine model at 8 threads, 160 players",
		Header: []string{"machine", "rate", "resp ms", "lock%", "wait%"},
	}
	type variant struct {
		key, name string
		cores     int
		smt       float64
		mem       float64
	}
	for _, v := range []variant{
		{"paper", "paper: 4 cores, SMT 1.6, bus 0.28", 4, 1.6, 0.28},
		{"no_smt", "no SMT penalty", 4, 1.0, 0.28},
		{"no_bus", "no bus contention", 4, 1.6, 0},
		{"ideal", "ideal: 8 true cores, free memory", 8, 1.0, 0},
	} {
		o.Progress("ablation-smt: %s", v.name)
		cfg := baseConfig(o, 160, 8, locking.Conservative{})
		cfg.Machine.Cores = v.cores
		cfg.Machine.SMTPenalty = v.smt
		cfg.Machine.MemContention = v.mem
		res, err := run(cfg)
		if err != nil {
			return Result{}, err
		}
		lock := res.Avg.Percent(metrics.CompLock)
		wait := res.Avg.Percent(metrics.CompIntraWait) + res.Avg.Percent(metrics.CompInterWait)
		t.AddRow(
			v.name,
			metrics.F1(res.ResponseRate()),
			metrics.F1(res.ResponseTimeMs()),
			metrics.Pct(lock),
			metrics.Pct(wait),
		)
		label := "machine/" + v.key
		r.add("ablations.lock_pct/"+label, "%", lock)
		r.add("ablations.wait_pct/"+label, "%", wait)
		r.addRun("ablations", label, res)
	}
	r.Tables = []metrics.Table{t}
	return r, nil
}

// AblationLockGranularity measures lock overhead versus areanode tree
// depth under contention — the experiment behind the paper's §5.1
// remark that growing the tree beyond 31 areanodes "does not seem to
// have an impact on the lock overhead".
func AblationLockGranularity(o Options) (Result, error) {
	o.fill()
	var r Result
	t := metrics.Table{
		Title:  "Ablation: lock overhead vs areanode tree size (4T, 144 players, optimized)",
		Header: []string{"areanodes", "lock%", "leaf-shared", "resp ms"},
	}
	for _, depth := range []int{1, 2, 3, 4, 5} {
		o.Progress("ablation-granularity: depth=%d", depth)
		cfg := baseConfig(o, 144, 4, locking.Optimized{})
		cfg.AreanodeDepth = depth
		res, err := run(cfg)
		if err != nil {
			return Result{}, err
		}
		nodes := fmt.Sprint(1<<(depth+1) - 1)
		lock, shared := res.Avg.Percent(metrics.CompLock), 100*res.FrameLog.SharedLeafFraction()
		t.AddRow(nodes, metrics.Pct(lock), metrics.Pct(shared), metrics.F1(res.ResponseTimeMs()))
		label := "granularity/" + nodes
		r.add("ablations.lock_pct/"+label, "%", lock)
		r.add("ablations.shared_leaf_pct/"+label, "%", shared)
		r.addRun("ablations", label, res)
	}
	r.Tables = []metrics.Table{t}
	return r, nil
}

// Ablations runs every ablation study into one Result. Its report ends
// in a blank line after the last table, as each study's does.
func Ablations(o Options) (Result, error) {
	o.fill()
	r := Result{Text: "\n"}
	for _, fn := range []func(Options) (Result, error){
		AblationAssignment, AblationBatching, AblationSMT, AblationLockGranularity,
	} {
		part, err := fn(o)
		if err != nil {
			return Result{}, err
		}
		r.Tables = append(r.Tables, part.Tables...)
		r.Metrics = append(r.Metrics, part.Metrics...)
	}
	return r, nil
}

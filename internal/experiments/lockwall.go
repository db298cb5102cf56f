package experiments

import (
	"fmt"

	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/simserver"
)

// Lockwall is the work-stealing ablation (DESIGN.md §10): the paper's
// worst case — conservative locking, 160 players, rising thread counts —
// re-run with the static request scheduler against the conflict-aware
// work-stealing scheduler. The static design hits the lock wall the
// paper measures (31% lock time at 8T plus barrier idling); stealing
// attacks both terms: a contended first acquisition parks the request
// instead of queueing on the lock, and a thread that finishes its own
// clients executes other threads' pending requests instead of idling at
// the request barrier. The summary reports the 8T lock-share reduction;
// per-client execution order is unchanged (the cross-engine conformance
// suite proves the worlds bit-identical arm for arm).
func Lockwall(o Options) (Result, error) {
	o.fill()
	const players = 160
	var r Result
	t := metrics.Table{
		Title: fmt.Sprintf("Lock wall: static vs work-stealing request execution (%d players, conservative locking)", players),
		Header: []string{"config", "exec", "lock", "intra-wait", "inter-wait",
			"steals/s", "parks/s", "stolen%", "rate/s", "resp ms"},
	}
	for _, th := range []int{2, 4, 8} {
		cfg := baseConfig(o, players, th, locking.Conservative{})
		o.Progress("lockwall: threads=%d static", th)
		static, err := run(cfg)
		if err != nil {
			return Result{}, err
		}
		o.Progress("lockwall: threads=%d stealing", th)
		cfg.Stealing = true
		stolen, err := run(cfg)
		if err != nil {
			return Result{}, err
		}
		r.lockwallRow(&t, fmt.Sprintf("%dT static", th), static)
		r.lockwallRow(&t, fmt.Sprintf("%dT stealing", th), stolen)
		if th == 8 {
			ls, lw := static.Avg.Percent(metrics.CompLock), stolen.Avg.Percent(metrics.CompLock)
			if ls > 0 {
				red := 100 * (ls - lw) / ls
				r.Text = fmt.Sprintf("8T lock share %s -> %s (%.0f%% reduction); response rate %.1f -> %.1f/s\n",
					metrics.Pct(ls), metrics.Pct(lw), red, static.ResponseRate(), stolen.ResponseRate())
				r.add("lockwall.lock_reduction_pct/8T", "%", red)
			}
		}
	}
	r.Tables = []metrics.Table{t}
	return r, nil
}

// lockwallRow adds one arm to t and to r's metrics: the breakdown
// components the lock wall is made of, plus the stealing counters (zero
// in the static arms).
func (r *Result) lockwallRow(t *metrics.Table, label string, res *simserver.Result) {
	bd := res.Avg
	var steals, conflicts, execCmds int64
	for _, p := range res.PerThread {
		steals += p.Steals
		conflicts += p.StealConflicts
		execCmds += p.ExecCmds
	}
	stolenPct := 0.0
	if execCmds > 0 {
		stolenPct = 100 * float64(steals) / float64(execCmds)
	}
	exec, lock := bd.Percent(metrics.CompExec), bd.Percent(metrics.CompLock)
	intra, inter := bd.Percent(metrics.CompIntraWait), bd.Percent(metrics.CompInterWait)
	stealsPerS, parksPerS := float64(steals)/res.DurationS, float64(conflicts)/res.DurationS
	t.AddRow(label, metrics.Pct(exec), metrics.Pct(lock), metrics.Pct(intra), metrics.Pct(inter),
		metrics.F1(stealsPerS), metrics.F1(parksPerS), metrics.F1(stolenPct),
		metrics.F1(res.ResponseRate()), metrics.F1(res.ResponseTimeMs()))
	for _, m := range []Metric{
		{"exec_pct", "%", exec}, {"lock_pct", "%", lock},
		{"intra-wait_pct", "%", intra}, {"inter-wait_pct", "%", inter},
		{"steals_per_s", "1/s", stealsPerS}, {"parks_per_s", "1/s", parksPerS},
		{"stolen_pct", "%", stolenPct},
	} {
		r.add("lockwall."+m.Name+"/"+label, m.Unit, m.Value)
	}
	r.addRun("lockwall", label, res)
}

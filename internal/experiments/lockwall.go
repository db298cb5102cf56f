package experiments

import (
	"fmt"
	"strings"

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
func Lockwall(o Options) (string, error) {
	o.fill()
	const players = 160
	t := metrics.Table{
		Title: fmt.Sprintf("Lock wall: static vs work-stealing request execution (%d players, conservative locking)", players),
		Header: []string{"config", "exec", "lock", "intra-wait", "inter-wait",
			"steals/s", "parks/s", "stolen%", "rate/s", "resp ms"},
	}
	var summary strings.Builder
	for _, th := range []int{2, 4, 8} {
		static, stolen, err := lockwallArms(o, players, th)
		if err != nil {
			return "", err
		}
		t.AddRow(lockwallRow(fmt.Sprintf("%dT static", th), static)...)
		t.AddRow(lockwallRow(fmt.Sprintf("%dT stealing", th), stolen)...)
		if th == 8 {
			ls, lw := static.Avg.Percent(metrics.CompLock), stolen.Avg.Percent(metrics.CompLock)
			if ls > 0 {
				fmt.Fprintf(&summary, "8T lock share %s -> %s (%.0f%% reduction); response rate %.1f -> %.1f/s\n",
					metrics.Pct(ls), metrics.Pct(lw), 100*(ls-lw)/ls,
					static.ResponseRate(), stolen.ResponseRate())
			}
		}
	}
	return t.Render() + summary.String(), nil
}

// lockwallArms runs one thread count's two arms: the static schedule and
// the stealing one, identical otherwise.
func lockwallArms(o Options, players, threads int) (static, stolen *simserver.Result, err error) {
	cfg := baseConfig(o, players, threads, false, locking.Conservative{})
	o.Progress("lockwall: threads=%d static", threads)
	if static, err = run(cfg); err != nil {
		return nil, nil, err
	}
	o.Progress("lockwall: threads=%d stealing", threads)
	cfg.Stealing = true
	stolen, err = run(cfg)
	return static, stolen, err
}

// lockwallRow renders one arm: the breakdown components the lock wall is
// made of, plus the stealing counters (zero in the static arms).
func lockwallRow(label string, r *simserver.Result) []string {
	bd := r.Avg
	var steals, conflicts, execCmds int64
	for _, p := range r.PerThread {
		steals += p.Steals
		conflicts += p.StealConflicts
		execCmds += p.ExecCmds
	}
	stolenPct := 0.0
	if execCmds > 0 {
		stolenPct = 100 * float64(steals) / float64(execCmds)
	}
	return []string{
		label,
		metrics.Pct(bd.Percent(metrics.CompExec)),
		metrics.Pct(bd.Percent(metrics.CompLock)),
		metrics.Pct(bd.Percent(metrics.CompIntraWait)),
		metrics.Pct(bd.Percent(metrics.CompInterWait)),
		metrics.F1(float64(steals) / r.DurationS),
		metrics.F1(float64(conflicts) / r.DurationS),
		metrics.F1(stolenPct),
		metrics.F1(r.ResponseRate()),
		metrics.F1(r.ResponseTimeMs()),
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and §5) on the simulated machine. Each Fig* function
// runs the required sweep and renders the same rows/series the paper
// reports as plain-text tables; cmd/qbench drives them all, and
// bench_test.go exposes each as a testing.B benchmark with shortened
// virtual durations.
//
// The experiment workload matches the paper's setup: a large maze map
// "designed to support 16-32 players" loaded far beyond that (64-160
// automatic players), two-minute steady-state runs (configurable; the
// statistics converge within seconds of virtual time), the default
// 31-areanode tree, and the conservative locking baseline unless a
// figure says otherwise.
package experiments

import (
	"fmt"
	"strings"

	"qserve/internal/areanode"
	"qserve/internal/costmodel"
	"qserve/internal/locking"
	"qserve/internal/metrics"
	"qserve/internal/simserver"
	"qserve/internal/worldmap"
)

// Options tune a reproduction run.
type Options struct {
	// DurationS is the virtual run length per configuration. The paper
	// uses 120s; the defaults here use less because the simulator is
	// deterministic and the statistics are stationary.
	DurationS float64
	// Seed for all runs.
	Seed int64
	// Quiet suppresses progress output on long sweeps.
	Progress func(format string, args ...any)
}

func (o *Options) fill() {
	if o.DurationS <= 0 {
		o.DurationS = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
}

// PaperMapConfig is the experiment map: a 16-room maze sized for 16-32
// players, the analogue of the paper's gmdm10.bsp deathmatch map. All
// player counts from 64 up therefore represent the paper's "extreme
// situations [that] stress the server aggressively".
func PaperMapConfig(seed int64) worldmap.Config {
	cfg := worldmap.DefaultConfig()
	cfg.Name = "gen-dm16"
	cfg.Rows, cfg.Cols = 4, 4
	cfg.Seed = seed + 1
	return cfg
}

// baseConfig assembles the standard experiment configuration.
func baseConfig(o Options, players, threads int, sequential bool, strat locking.Strategy) simserver.Config {
	return simserver.Config{
		MapConfig:  PaperMapConfig(o.Seed),
		Players:    players,
		Threads:    threads,
		Sequential: sequential,
		Strategy:   strat,
		DurationS:  o.DurationS,
		Seed:       o.Seed,
	}
}

// run executes one configuration, failing loudly on simulator errors.
func run(cfg simserver.Config) (*simserver.Result, error) {
	res, err := simserver.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return res, nil
}

// breakdownRow renders the paper's breakdown components for one result.
func breakdownRow(label string, r *simserver.Result) []string {
	bd := r.Avg
	return []string{
		label,
		metrics.Pct(bd.Percent(metrics.CompExec)),
		metrics.Pct(bd.Percent(metrics.CompLock)),
		metrics.Pct(bd.Percent(metrics.CompRecv)),
		metrics.Pct(bd.Percent(metrics.CompReply)),
		metrics.Pct(bd.Percent(metrics.CompIntraWait)),
		metrics.Pct(bd.Percent(metrics.CompInterWait)),
		metrics.Pct(bd.Percent(metrics.CompIdle)),
		metrics.Pct(bd.Percent(metrics.CompWorld)),
		metrics.F1(bd.BytesPerReply()),
	}
}

var breakdownHeader = []string{
	"config", "exec", "lock", "recv", "reply", "intra-wait", "inter-wait", "idle", "world", "B/reply",
}

// Table1 prints the simulated testbed configuration — the analogue of
// the paper's Table 1.
func Table1() string {
	m := costmodel.PaperMachine()
	t := metrics.Table{
		Title:  "Table 1: configuration of the (simulated) game server system",
		Header: []string{"component", "value"},
	}
	t.AddRow("CPUs", m.Name)
	t.AddRow("cores x SMT", fmt.Sprintf("%d x %d-way", m.Cores, m.SMTWays))
	t.AddRow("SMT penalty", metrics.F2(m.SMTPenalty))
	t.AddRow("bus contention beta", metrics.F2(m.MemContention))
	t.AddRow("network", "simulated LAN, 0.15ms one-way")
	t.AddRow("map", "gen-dm16 (16 rooms, procedurally generated)")
	t.AddRow("areanodes", fmt.Sprintf("%d (depth %d, %d leaves)",
		1<<(areanode.DefaultDepth+1)-1, areanode.DefaultDepth, 1<<areanode.DefaultDepth))
	return t.Render()
}

// Fig1 runs the sequential server briefly and reports the measured phase
// ordering and shares — the structural content of the paper's Figure 1.
func Fig1(o Options) (string, error) {
	o.fill()
	res, err := run(baseConfig(o, 64, 1, true, nil))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig 1: sequential server frame structure (S -> P -> Rx/E -> T/Tx)\n")
	fmt.Fprintf(&b, "measured over %d frames at 64 players:\n", res.Frames)
	bd := res.Avg
	fmt.Fprintf(&b, "  S  (select/idle)      %6s\n", metrics.Pct(bd.Percent(metrics.CompIdle)))
	fmt.Fprintf(&b, "  P  (world physics)    %6s\n", metrics.Pct(bd.Percent(metrics.CompWorld)))
	fmt.Fprintf(&b, "  Rx/E (recv+execute)   %6s\n", metrics.Pct(bd.Percent(metrics.CompRecv)+bd.Percent(metrics.CompExec)))
	fmt.Fprintf(&b, "  T/Tx (form+send)      %6s\n", metrics.Pct(bd.Percent(metrics.CompReply)))
	return b.String(), nil
}

// Fig2 demonstrates areanode tree construction and object linking — the
// paper's Figure 2 — by building the default tree over the experiment
// map and reporting the link distribution of a populated world.
func Fig2(o Options) (string, error) {
	o.fill()
	res, err := run(baseConfig(o, 32, 1, false, locking.Optimized{}))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig 2: areanode tree (default depth 4: 31 nodes, 16 leaves)\n")
	fmt.Fprintf(&b, "tree leaves: %d; ", res.NumLeaves)
	fmt.Fprintf(&b, "objects crossing division planes link to interior nodes,\n")
	fmt.Fprintf(&b, "others to leaves; per-request distinct leaves locked: %.2f\n",
		res.Locks.AvgDistinctLeavesPerRequest())
	return b.String(), nil
}

// Fig3 traces one multithreaded run's frame orchestration — the paper's
// Figure 3 — and renders an execution timeline of the traced frames:
// per-thread phase spans (W=world, r=requests, b=intra barrier, R=reply,
// o=wait for request phase, e=wait for frame end, .=idle/select).
func Fig3(o Options) (string, error) {
	o.fill()
	cfg := baseConfig(o, 144, 4, false, locking.Conservative{})
	cfg.TraceFrames = 40
	res, err := run(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Fig 3: parallel frame orchestration (4 threads, 144 players)\n")
	total, parts := 0, 0
	for _, f := range res.FrameLog.Frames {
		total++
		parts += f.Participants
	}
	fmt.Fprintf(&b, "frames: %d, avg participants/frame: %.2f (threads missing a frame\n",
		total, float64(parts)/float64(max(total, 1)))
	fmt.Fprintf(&b, "wait for the frame-end signal and join the next frame)\n")
	bd := res.Avg
	fmt.Fprintf(&b, "inter-frame wait: %s, intra-frame wait: %s of thread time\n\n",
		metrics.Pct(bd.Percent(metrics.CompInterWait)), metrics.Pct(bd.Percent(metrics.CompIntraWait)))
	b.WriteString(RenderTimeline(res.Trace, res.Threads, 96))
	b.WriteString("W=world r=requests b=barrier R=reply o=wait-open e=wait-end .=idle\n")
	return b.String(), nil
}

// RenderTimeline draws traced phase spans as one text row per thread,
// bucketing virtual time into width columns. Later spans overwrite
// earlier ones within a bucket, which favours the more interesting
// (shorter) phases.
func RenderTimeline(trace []simserver.PhaseSpan, threads, width int) string {
	if len(trace) == 0 {
		return "(no trace)\n"
	}
	start, end := trace[0].StartNs, trace[0].EndNs
	for _, s := range trace {
		if s.StartNs < start {
			start = s.StartNs
		}
		if s.EndNs > end {
			end = s.EndNs
		}
	}
	if end <= start {
		return "(empty trace window)\n"
	}
	glyph := map[string]byte{
		"world": 'W', "requests": 'r', "barrier": 'b', "reply": 'R',
		"wait-open": 'o', "wait-end": 'e', "idle": '.',
	}
	rows := make([][]byte, threads)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	span := float64(end - start)
	for _, s := range trace {
		g, ok := glyph[s.Phase]
		if !ok || s.Thread >= threads {
			continue
		}
		lo := int(float64(s.StartNs-start) / span * float64(width))
		hi := int(float64(s.EndNs-start) / span * float64(width))
		if hi <= lo {
			hi = lo + 1
		}
		for c := lo; c < hi && c < width; c++ {
			rows[s.Thread][c] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline of first traced frames (%.2fms of virtual time):\n",
		span/1e6)
	for i, row := range rows {
		fmt.Fprintf(&b, "  T%d |%s|\n", i, row)
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fig4 reproduces Figure 4: overhead of the parallel version at one
// thread versus the sequential server, at 64/96/128 players — execution
// breakdowns (a), response rate (b), and response time (c).
func Fig4(o Options) (string, error) {
	o.fill()
	players := []int{64, 96, 128}
	bdt := metrics.Table{Title: "Fig 4(a): sequential vs single-thread parallel breakdowns", Header: breakdownHeader}
	rt := metrics.Table{
		Title:  "Fig 4(b,c): response rate and time",
		Header: []string{"players", "seq rate/s", "1T-par rate/s", "seq resp ms", "1T-par resp ms", "overhead"},
	}
	for _, n := range players {
		o.Progress("fig4: players=%d", n)
		seq, err := run(baseConfig(o, n, 1, true, nil))
		if err != nil {
			return "", err
		}
		par, err := run(baseConfig(o, n, 1, false, locking.Conservative{}))
		if err != nil {
			return "", err
		}
		bdt.AddRow(breakdownRow(fmt.Sprintf("seq/%d", n), seq)...)
		bdt.AddRow(breakdownRow(fmt.Sprintf("1T/%d", n), par)...)
		overhead := RequestOverhead(seq, par)
		rt.AddRow(
			fmt.Sprint(n),
			metrics.F1(seq.ResponseRate()),
			metrics.F1(par.ResponseRate()),
			metrics.F1(seq.ResponseTimeMs()),
			metrics.F1(par.ResponseTimeMs()),
			metrics.Pct(overhead),
		)
	}
	return bdt.Render() + "\n" + rt.Render(), nil
}

// RequestOverhead returns the parallelization overhead as the per-request
// request-processing (exec+lock) time inflation of the parallel run over
// the sequential baseline, in percent — the quantity behind the paper's
// "less than 5% at small player counts ... up to 15% at 128 players".
// Per-request normalization keeps the metric meaningful at saturation,
// where both servers are 100% busy by construction.
func RequestOverhead(seq, par *simserver.Result) float64 {
	if seq.Requests == 0 || par.Requests == 0 {
		return 0
	}
	seqPer := float64(seq.Avg.Ns[metrics.CompExec]) / float64(seq.Requests)
	parPer := float64(par.Avg.Ns[metrics.CompExec]+par.Avg.Ns[metrics.CompLock]) / float64(par.Requests)
	if seqPer <= 0 {
		return 0
	}
	return 100 * (parPer - seqPer) / seqPer
}

// threadSweep runs the Fig 5/Fig 6 grid: thread counts × player counts
// under the given strategy.
func threadSweep(o Options, strat locking.Strategy, title string) (string, error) {
	threads := []int{2, 4, 8}
	players := []int{64, 96, 128, 144, 160}
	bdt := metrics.Table{Title: title + " — average execution time breakdowns", Header: breakdownHeader}
	rt := metrics.Table{
		Title:  title + " — response rate (replies/s) and response time (ms)",
		Header: []string{"players", "2T rate", "4T rate", "8T rate", "2T ms", "4T ms", "8T ms"},
	}
	rates := map[[2]int]*simserver.Result{}
	for _, th := range threads {
		for _, n := range players {
			o.Progress("%s: threads=%d players=%d", title, th, n)
			res, err := run(baseConfig(o, n, th, false, strat))
			if err != nil {
				return "", err
			}
			rates[[2]int{th, n}] = res
			bdt.AddRow(breakdownRow(fmt.Sprintf("%dT/%d", th, n), res)...)
		}
	}
	for _, n := range players {
		row := []string{fmt.Sprint(n)}
		for _, th := range threads {
			row = append(row, metrics.F1(rates[[2]int{th, n}].ResponseRate()))
		}
		for _, th := range threads {
			row = append(row, metrics.F1(rates[[2]int{th, n}].ResponseTimeMs()))
		}
		rt.AddRow(row...)
	}
	return bdt.Render() + "\n" + rt.Render(), nil
}

// Fig5 reproduces Figure 5: multithreaded performance under the
// conservative (baseline) locking scheme.
func Fig5(o Options) (string, error) {
	o.fill()
	return threadSweep(o, locking.Conservative{}, "Fig 5: conservative locking")
}

// Fig6 reproduces Figure 6: the same sweep with optimized
// (expanded/directional) locking.
func Fig6(o Options) (string, error) {
	o.fill()
	return threadSweep(o, locking.Optimized{}, "Fig 6: optimized locking")
}

// Fig7a reproduces Figure 7(a): the split of lock time between leaf and
// parent areanode locking per thread count and player count.
func Fig7a(o Options) (string, error) {
	o.fill()
	t := metrics.Table{
		Title:  "Fig 7(a): share of lock time from leaf vs parent areanode locking",
		Header: []string{"config", "leaf", "parent"},
	}
	for _, th := range []int{2, 4, 8} {
		for _, n := range []int{64, 128, 160} {
			o.Progress("fig7a: threads=%d players=%d", th, n)
			res, err := run(baseConfig(o, n, th, false, locking.Conservative{}))
			if err != nil {
				return "", err
			}
			total := res.Avg.LeafLockNs + res.Avg.ParentLockNs
			leaf, parent := 0.0, 0.0
			if total > 0 {
				leaf = 100 * float64(res.Avg.LeafLockNs) / float64(total)
				parent = 100 * float64(res.Avg.ParentLockNs) / float64(total)
			}
			t.AddRow(fmt.Sprintf("%dT/%d", th, n), metrics.Pct(leaf), metrics.Pct(parent))
		}
	}
	return t.Render(), nil
}

// Fig7b reproduces Figure 7(b): the average percentage of distinct leaf
// areanodes locked per request as the tree size varies from 3 to 63
// areanodes. As in the paper's analysis of region sizes, the request
// regions come from the game-aware (optimized) strategy; the whole-map
// conservative fallback would pin every point at 100%.
func Fig7b(o Options) (string, error) {
	o.fill()
	t := metrics.Table{
		Title:  "Fig 7(b): distinct leaves locked per request vs areanode count",
		Header: []string{"areanodes", "leaves", "distinct/req", "% of world", "relocked"},
	}
	for _, depth := range []int{1, 2, 3, 4, 5} {
		o.Progress("fig7b: depth=%d", depth)
		cfg := baseConfig(o, 128, 4, false, locking.Optimized{})
		cfg.AreanodeDepth = depth
		res, err := run(cfg)
		if err != nil {
			return "", err
		}
		distinct := res.Locks.AvgDistinctLeavesPerRequest()
		t.AddRow(
			fmt.Sprint(1<<(depth+1)-1),
			fmt.Sprint(res.NumLeaves),
			metrics.F2(distinct),
			metrics.Pct(100*distinct/float64(res.NumLeaves)),
			metrics.Pct(100*res.Locks.RelockFraction()),
		)
	}
	return t.Render(), nil
}

// Fig7c reproduces Figure 7(c): the fraction of leaves locked by at
// least two threads in the same frame, versus player count.
func Fig7c(o Options) (string, error) {
	o.fill()
	t := metrics.Table{
		Title:  "Fig 7(c): leaves locked by >=2 threads per frame",
		Header: []string{"players", "2T", "4T", "8T"},
	}
	players := []int{64, 96, 128, 144, 160}
	cells := map[[2]int]string{}
	for _, th := range []int{2, 4, 8} {
		for _, n := range players {
			o.Progress("fig7c: threads=%d players=%d", th, n)
			res, err := run(baseConfig(o, n, th, false, locking.Conservative{}))
			if err != nil {
				return "", err
			}
			cells[[2]int{th, n}] = metrics.Pct(100 * res.FrameLog.SharedLeafFraction())
		}
	}
	for _, n := range players {
		t.AddRow(fmt.Sprint(n), cells[[2]int{2, n}], cells[[2]int{4, n}], cells[[2]int{8, n}])
	}
	return t.Render(), nil
}

// Imbalance reproduces the §4.2/§5.2 workload-balance statistics:
// requests per thread per frame and the per-frame spread.
func Imbalance(o Options) (string, error) {
	o.fill()
	t := metrics.Table{
		Title:  "Sec 4.2/5.2: per-frame request balance at 128 players",
		Header: []string{"threads", "req/thread/frame", "spread mean", "spread stddev"},
	}
	for _, th := range []int{2, 4, 8} {
		o.Progress("imbalance: threads=%d", th)
		res, err := run(baseConfig(o, 128, th, false, locking.Conservative{}))
		if err != nil {
			return "", err
		}
		mean, sd := res.FrameLog.ImbalanceStats()
		t.AddRow(
			fmt.Sprint(th),
			metrics.F2(res.FrameLog.RequestsPerThreadPerFrame()),
			metrics.F2(mean),
			metrics.F2(sd),
		)
	}
	return t.Render(), nil
}

// Coverage reproduces the §5.1 per-frame map-activity statistics: the
// fraction of the map accessed per frame and leaf lock operations.
func Coverage(o Options) (string, error) {
	o.fill()
	t := metrics.Table{
		Title:  "Sec 5.1: map region activity per frame (conservative locking)",
		Header: []string{"config", "touched leaves", "lock ops/leaf/frame"},
	}
	for _, th := range []int{2, 4, 8} {
		for _, n := range []int{64, 128, 160} {
			o.Progress("coverage: threads=%d players=%d", th, n)
			res, err := run(baseConfig(o, n, th, false, locking.Conservative{}))
			if err != nil {
				return "", err
			}
			t.AddRow(
				fmt.Sprintf("%dT/%d", th, n),
				metrics.Pct(100*res.FrameLog.TouchedLeafFraction()),
				metrics.F2(res.FrameLog.LockOpsPerLeafPerFrame()),
			)
		}
	}
	return t.Render(), nil
}

// Saturation summarizes the headline scaling claim: the player count at
// which each configuration saturates, where saturation is detected as
// mean response time exceeding two client frames or dropped replies.
func Saturation(o Options) (string, error) {
	o.fill()
	t := metrics.Table{
		Title:  "Headline: supported players per configuration",
		Header: []string{"config", "supported", "vs sequential"},
	}
	players := []int{96, 112, 128, 144, 160, 176, 192, 208}
	type probe struct {
		label string
		mk    func(n int) simserver.Config
	}
	probes := []probe{
		{"sequential", func(n int) simserver.Config { return baseConfig(o, n, 1, true, nil) }},
		{"2T conservative", func(n int) simserver.Config { return baseConfig(o, n, 2, false, locking.Conservative{}) }},
		{"4T conservative", func(n int) simserver.Config { return baseConfig(o, n, 4, false, locking.Conservative{}) }},
		{"8T conservative", func(n int) simserver.Config { return baseConfig(o, n, 8, false, locking.Conservative{}) }},
		{"8T optimized", func(n int) simserver.Config { return baseConfig(o, n, 8, false, locking.Optimized{}) }},
	}
	var seqSupported int
	for _, pr := range probes {
		supported := 0
		for _, n := range players {
			o.Progress("saturation: %s players=%d", pr.label, n)
			res, err := run(pr.mk(n))
			if err != nil {
				return "", err
			}
			replied := float64(res.Resp.Replies) / float64(maxI64(res.Requests, 1))
			if res.ResponseTimeMs() <= 2*33 && replied >= 0.97 {
				supported = n
			} else {
				break
			}
		}
		if pr.label == "sequential" {
			seqSupported = supported
		}
		gain := "-"
		if seqSupported > 0 && pr.label != "sequential" {
			gain = metrics.Pct(100 * float64(supported-seqSupported) / float64(seqSupported))
		}
		t.AddRow(pr.label, fmt.Sprint(supported), gain)
	}
	return t.Render(), nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// WaitAnalysis reproduces §5.2's decomposition of inter-frame wait time
// into waiting for the world update versus waiting for the previous
// frame to complete.
func WaitAnalysis(o Options) (string, error) {
	o.fill()
	t := metrics.Table{
		Title:  "Sec 5.2: wait time analysis (conservative locking, 128 players)",
		Header: []string{"threads", "intra-wait", "inter-wait", "total wait"},
	}
	for _, th := range []int{2, 4, 8} {
		o.Progress("wait: threads=%d", th)
		res, err := run(baseConfig(o, 128, th, false, locking.Conservative{}))
		if err != nil {
			return "", err
		}
		bd := res.Avg
		intra := bd.Percent(metrics.CompIntraWait)
		inter := bd.Percent(metrics.CompInterWait)
		t.AddRow(fmt.Sprint(th), metrics.Pct(intra), metrics.Pct(inter), metrics.Pct(intra+inter))
	}
	return t.Render(), nil
}

// Experiment is one named study of the registry.
type Experiment struct {
	// Name is what `qbench -exp` selects it by.
	Name string
	Run  func(Options) (string, error)
	// InAll marks the studies the full reproduction (All) concatenates;
	// the rest run only when named.
	InAll bool
}

// Registry lists every experiment, in the order All runs them. It is the
// one enumeration: qbench's -exp switch, its help text and All read it.
func Registry() []Experiment {
	table1 := func(Options) (string, error) { return Table1(), nil }
	return []Experiment{
		{"table1", table1, true},
		{"fig1", Fig1, true},
		{"fig2", Fig2, true},
		{"fig3", Fig3, true},
		{"fig4", Fig4, true},
		{"fig5", Fig5, true},
		{"fig6", Fig6, true},
		{"fig7a", Fig7a, true},
		{"fig7b", Fig7b, true},
		{"fig7c", Fig7c, true},
		{"imbalance", Imbalance, true},
		{"coverage", Coverage, true},
		{"wait", WaitAnalysis, true},
		{"mapstudy", MapStudy, true},
		{"saturation", Saturation, true},
		{"ablations", Ablations, true},
		{"balance", Balance, true},
		{"durability", Durability, true},
		{"visibility", Visibility, false},
		{"lockwall", Lockwall, false},
	}
}

// All runs the registry's InAll experiments in order and concatenates
// the reports.
func All(o Options) (string, error) {
	o.fill()
	var b strings.Builder
	for _, e := range Registry() {
		if !e.InAll {
			continue
		}
		out, err := e.Run(o)
		if err != nil {
			return b.String(), err
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	return b.String(), nil
}

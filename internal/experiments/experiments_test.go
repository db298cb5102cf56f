package experiments

import (
	"strings"
	"testing"

	"qserve/internal/locking"
	"qserve/internal/simserver"
)

// quickOpts keeps unit-test sweeps fast; the statistics are stationary
// so short virtual runs preserve the shapes asserted below.
func quickOpts() Options {
	return Options{DurationS: 2, Seed: 3}
}

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Table 1", "Xeon", "4 x 2-way", "areanodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

// TestStructuralFigures runs the cheap structural studies through the
// registry qbench selects from, and checks the registry names each
// experiment once.
func TestStructuralFigures(t *testing.T) {
	cheap := map[string]bool{"table1": true, "fig1": true, "fig2": true, "fig3": true}
	seen := make(map[string]bool)
	for _, e := range Registry() {
		if e.Name == "" || e.Run == nil || seen[e.Name] {
			t.Fatalf("registry entry %q is empty or listed twice", e.Name)
		}
		seen[e.Name] = true
		if !cheap[e.Name] {
			continue
		}
		delete(cheap, e.Name)
		out, err := e.Run(quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(out) < 50 {
			t.Errorf("%s output suspiciously short:\n%s", e.Name, out)
		}
	}
	if len(cheap) != 0 {
		t.Fatalf("registry is missing %v", cheap)
	}
}

func TestFig4OverheadShape(t *testing.T) {
	o := quickOpts()
	o.DurationS = 3
	out, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "seq/64") || !strings.Contains(out, "1T/128") {
		t.Errorf("fig4 rows missing:\n%s", out)
	}
	// Quantitative shape: the 1T parallel version must charge lock time,
	// the sequential must not.
	seq, err := run(baseConfig(o, 128, 1, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(baseConfig(o, 128, 1, false, locking.Conservative{}))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Avg.Ns[1] != 0 { // CompLock
		t.Error("sequential charged lock time")
	}
	if par.Avg.Ns[1] == 0 {
		t.Error("1T parallel charged no lock time")
	}
	// Single-thread overhead is positive and material (Fig 4a: <5% at 64
	// players growing to ~15% of total at 128; per-request it is a
	// roughly constant inflation of request processing).
	ovh := func(players int) float64 {
		s, err := run(baseConfig(o, players, 1, true, nil))
		if err != nil {
			t.Fatal(err)
		}
		p, err := run(baseConfig(o, players, 1, false, locking.Conservative{}))
		if err != nil {
			t.Fatal(err)
		}
		return RequestOverhead(s, p)
	}
	if o64, o128 := ovh(64), ovh(128); o64 <= 0 || o128 <= 0 {
		t.Errorf("overhead not positive: 64p=%.3f 128p=%.3f", o64, o128)
	}
}

func TestFig7bDistinctLeavesDecreasing(t *testing.T) {
	o := quickOpts()
	out, err := Fig7b(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "63") || !strings.Contains(out, "31") {
		t.Errorf("fig7b missing areanode counts:\n%s", out)
	}
	// The fraction of the world locked per request must fall as the
	// tree grows (the paper's "decreases rapidly").
	frac := func(depth int) float64 {
		cfg := baseConfig(o, 96, 4, false, locking.Optimized{})
		cfg.AreanodeDepth = depth
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Locks.AvgDistinctLeavesPerRequest() / float64(res.NumLeaves)
	}
	f1, f4 := frac(1), frac(4)
	if f4 >= f1 {
		t.Errorf("locked world fraction not decreasing: depth1=%.2f depth4=%.2f", f1, f4)
	}
}

func TestFig7cSharingGrowsWithPlayers(t *testing.T) {
	o := quickOpts()
	share := func(players int) float64 {
		res, err := run(baseConfig(o, players, 4, false, locking.Conservative{}))
		if err != nil {
			t.Fatal(err)
		}
		return res.FrameLog.SharedLeafFraction()
	}
	lo, hi := share(64), share(160)
	if hi <= lo {
		t.Errorf("leaf sharing not growing with players: 64p=%.2f 160p=%.2f", lo, hi)
	}
	if hi < 0.5 {
		t.Errorf("near saturation sharing should be high, got %.2f", hi)
	}
}

func TestOptimizedBeatsConservativeAtScale(t *testing.T) {
	o := quickOpts()
	o.DurationS = 3
	cons, err := run(baseConfig(o, 160, 8, false, locking.Conservative{}))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := run(baseConfig(o, 160, 8, false, locking.Optimized{}))
	if err != nil {
		t.Fatal(err)
	}
	if opt.ResponseTimeMs() >= cons.ResponseTimeMs() {
		t.Errorf("optimized response %.1fms >= conservative %.1fms",
			opt.ResponseTimeMs(), cons.ResponseTimeMs())
	}
	// Lock time cut by more than a third (paper: "by more than half").
	consLock := cons.Avg.Percent(1)
	optLock := opt.Avg.Percent(1)
	if optLock > consLock*0.67 {
		t.Errorf("optimized lock share %.1f%% vs conservative %.1f%%: not reduced enough",
			optLock, consLock)
	}
}

func TestImbalanceAndCoverageRender(t *testing.T) {
	o := quickOpts()
	out, err := Imbalance(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "req/thread/frame") {
		t.Errorf("imbalance table malformed:\n%s", out)
	}
	out, err = Coverage(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "touched leaves") {
		t.Errorf("coverage table malformed:\n%s", out)
	}
	out, err = WaitAnalysis(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "total wait") {
		t.Errorf("wait table malformed:\n%s", out)
	}
}

func TestRequestsPerThreadPerFrameDecreasesWithThreads(t *testing.T) {
	o := quickOpts()
	rpf := func(threads int) float64 {
		res, err := run(baseConfig(o, 128, threads, false, locking.Conservative{}))
		if err != nil {
			t.Fatal(err)
		}
		return res.FrameLog.RequestsPerThreadPerFrame()
	}
	r2, r8 := rpf(2), rpf(8)
	// Paper §5.2: 4, 2.5, 1.5 requests per thread per frame for 2/4/8
	// threads at 128 players: monotonically decreasing.
	if r8 >= r2 {
		t.Errorf("requests/thread/frame not decreasing: 2T=%.2f 8T=%.2f", r2, r8)
	}
}

func TestPaperMapConfig(t *testing.T) {
	cfg := PaperMapConfig(9)
	if cfg.Rows != 4 || cfg.Cols != 4 || cfg.Name != "gen-dm16" {
		t.Errorf("map config = %+v", cfg)
	}
	// Distinct seeds give distinct maps, same seed identical.
	if PaperMapConfig(9) != cfg {
		t.Error("map config not deterministic")
	}
}

func TestBaseConfigDefaults(t *testing.T) {
	o := quickOpts()
	cfg := baseConfig(o, 64, 2, false, locking.Optimized{})
	if cfg.Players != 64 || cfg.Threads != 2 || cfg.Sequential {
		t.Errorf("base config = %+v", cfg)
	}
	var s simserver.Config
	_ = s
}

func TestRenderTimeline(t *testing.T) {
	o := quickOpts()
	cfg := baseConfig(o, 96, 4, false, locking.Conservative{})
	cfg.TraceFrames = 10
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	out := RenderTimeline(res.Trace, res.Threads, 80)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+res.Threads {
		t.Fatalf("timeline has %d lines:\n%s", len(lines), out)
	}
	// Each thread row must contain at least one phase glyph.
	for _, row := range lines[1:] {
		if !strings.ContainsAny(row, "WrbRoe.") {
			t.Errorf("empty timeline row: %q", row)
		}
	}
	if RenderTimeline(nil, 4, 80) != "(no trace)\n" {
		t.Error("empty trace not handled")
	}
}

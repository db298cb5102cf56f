package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"qserve/internal/locking"
)

// quickOpts keeps unit-test sweeps fast; the statistics are stationary
// so short virtual runs preserve the shapes asserted below.
func quickOpts() Options {
	return Options{DurationS: 2, Seed: 3}
}

// gateOpts is the configuration the shape gates read an experiment's
// metrics at: quickOpts, lengthened to three virtual seconds for the
// experiments whose gates need the longer window, and the lock-wall
// gate at one virtual second and the default seed, the table
// `qbench -exp lockwall -dur 1` prints.
func gateOpts(name string) Options {
	o := quickOpts()
	switch name {
	case "fig4", "fig5", "fig6", "ablations", "mapstudy":
		o.DurationS = 3
	case "lockwall":
		o = Options{DurationS: 1, Seed: 1}
	}
	return o
}

// shared holds each registry experiment's Result at its gateOpts,
// computed once per test binary, so every test reading an experiment's
// metrics reads the same run.
var shared = func() map[string]*sharedResult {
	m := map[string]*sharedResult{}
	for _, e := range Registry() {
		m[e.Name] = &sharedResult{run: e.Run}
	}
	return m
}()

type sharedResult struct {
	run  func(Options) (Result, error)
	once sync.Once
	r    Result
	err  error
}

// result returns the named experiment's shared Result.
func result(t *testing.T, name string) Result {
	t.Helper()
	s := shared[name]
	s.once.Do(func() { s.r, s.err = s.run(gateOpts(name)) })
	if s.err != nil {
		t.Fatalf("%s: %v", name, s.err)
	}
	return s.r
}

// metric reads one metric of the shared Results by name; the experiment
// is the name's prefix up to the first dot.
func metric(t *testing.T, name string) float64 {
	t.Helper()
	exp, _, _ := strings.Cut(name, ".")
	for _, m := range result(t, exp).Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s reports no metric %q", exp, name)
	return 0
}

// TestRegistryDeterministic runs every registry entry twice for 0.15
// virtual seconds, short enough to be cheap and long enough for every
// durability cadence to take full and delta captures, and requires the
// two Results identical, every table row as wide as its header, and
// every metric name non-empty, unique and prefixed by its experiment.
func TestRegistryDeterministic(t *testing.T) {
	o := Options{DurationS: 0.15, Seed: 1}
	seen := make(map[string]bool)
	for _, e := range Registry() {
		if e.Name == "" || e.Run == nil || seen[e.Name] {
			t.Fatalf("registry entry %q is empty or listed twice", e.Name)
		}
		seen[e.Name] = true
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			first, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			again, err := e.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("two runs differ:\n%s\n---\n%s", first.Render(), again.Render())
			}
			for _, tb := range first.Tables {
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Errorf("%q: row %q has %d cells for %d columns", tb.Title, row, len(row), len(tb.Header))
					}
				}
			}
			names := make(map[string]bool)
			for _, m := range first.Metrics {
				if !strings.HasPrefix(m.Name, e.Name+".") || len(m.Name) == len(e.Name)+1 ||
					strings.ContainsAny(m.Name, " \t\n") || names[m.Name] {
					t.Errorf("metric %q: empty, unprefixed, holds whitespace, or listed twice", m.Name)
				}
				names[m.Name] = true
			}
		})
	}
}

// TestStructuralFigures checks the four structural studies are
// registered and render a body, reading the shared Results.
func TestStructuralFigures(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"table1", "fig1", "fig2", "fig3"} {
		if _, ok := shared[name]; !ok {
			t.Fatalf("registry is missing %s", name)
		}
		r := result(t, name)
		if out := r.Render(); len(out) < 50 {
			t.Errorf("%s output suspiciously short:\n%s", name, out)
		}
	}
}

func TestImbalanceAndCoverageRender(t *testing.T) {
	t.Parallel()
	for name, want := range map[string]string{
		"imbalance": "req/thread/frame",
		"coverage":  "touched leaves",
		"wait":      "total wait",
	} {
		r := result(t, name)
		if out := r.Render(); !strings.Contains(out, want) {
			t.Errorf("%s table malformed:\n%s", name, out)
		}
	}
}

func TestTable1(t *testing.T) {
	r, _ := Table1(Options{})
	out := r.Render()
	for _, want := range []string{"Table 1", "Xeon", "4 x 2-way", "areanodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig4OverheadShape(t *testing.T) {
	t.Parallel()
	// The 1T parallel version must charge lock time, the sequential must
	// not.
	if metric(t, "fig4.lock_pct/seq/128") != 0 {
		t.Error("sequential charged lock time")
	}
	if metric(t, "fig4.lock_pct/1T/128") == 0 {
		t.Error("1T parallel charged no lock time")
	}
	// Single-thread overhead is positive and material (Fig 4a: <5% at 64
	// players growing to ~15% of total at 128; per-request it is a
	// roughly constant inflation of request processing).
	if o64, o128 := metric(t, "fig4.overhead_pct/64"), metric(t, "fig4.overhead_pct/128"); o64 <= 0 || o128 <= 0 {
		t.Errorf("overhead not positive: 64p=%.3f 128p=%.3f", o64, o128)
	}
}

func TestFig7bDistinctLeavesDecreasing(t *testing.T) {
	t.Parallel()
	// The fraction of the world locked per request must fall as the tree
	// grows (the paper's "decreases rapidly").
	if f1, f4 := metric(t, "fig7b.world_locked_pct/3"), metric(t, "fig7b.world_locked_pct/31"); f4 >= f1 {
		t.Errorf("locked world fraction not decreasing: 3 nodes=%.1f%% 31 nodes=%.1f%%", f1, f4)
	}
}

func TestFig7cSharingGrowsWithPlayers(t *testing.T) {
	t.Parallel()
	lo, hi := metric(t, "fig7c.shared_leaf_pct/4T/64"), metric(t, "fig7c.shared_leaf_pct/4T/160")
	if hi <= lo {
		t.Errorf("leaf sharing not growing with players: 64p=%.1f%% 160p=%.1f%%", lo, hi)
	}
	if hi < 50 {
		t.Errorf("near saturation sharing should be high, got %.1f%%", hi)
	}
}

func TestOptimizedBeatsConservativeAtScale(t *testing.T) {
	t.Parallel()
	cons, opt := metric(t, "fig5.resp_ms/8T/160"), metric(t, "fig6.resp_ms/8T/160")
	if opt >= cons {
		t.Errorf("optimized response %.1fms >= conservative %.1fms", opt, cons)
	}
	// Lock time cut by more than a third (paper: "by more than half").
	consLock, optLock := metric(t, "fig5.lock_pct/8T/160"), metric(t, "fig6.lock_pct/8T/160")
	if optLock > consLock*0.67 {
		t.Errorf("optimized lock share %.1f%% vs conservative %.1f%%: not reduced enough",
			optLock, consLock)
	}
}

func TestRequestsPerThreadPerFrameDecreasesWithThreads(t *testing.T) {
	t.Parallel()
	// Paper §5.2: 4, 2.5, 1.5 requests per thread per frame for 2/4/8
	// threads at 128 players: monotonically decreasing.
	if r2, r8 := metric(t, "imbalance.req_per_thread_frame/2T"), metric(t, "imbalance.req_per_thread_frame/8T"); r8 >= r2 {
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
	cfg := baseConfig(quickOpts(), 64, 2, locking.Optimized{})
	if cfg.Players != 64 || cfg.Threads != 2 {
		t.Errorf("base config = %+v", cfg)
	}
}

func TestRenderTimeline(t *testing.T) {
	t.Parallel()
	cfg := baseConfig(quickOpts(), 96, 4, locking.Conservative{})
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
	if len(lines) != 2+res.Threads || !strings.HasPrefix(lines[len(lines)-1], "W=world") {
		t.Fatalf("timeline has %d lines or no legend:\n%s", len(lines), out)
	}
	// Each thread row must contain at least one phase glyph.
	for _, row := range lines[1 : 1+res.Threads] {
		if !strings.ContainsAny(row, "WrbRoe.") {
			t.Errorf("empty timeline row: %q", row)
		}
	}
	if RenderTimeline(nil, 4, 80) != "(no trace)\n" {
		t.Error("empty trace not handled")
	}
}

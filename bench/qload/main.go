//go:build linux

// qload is the repo's live benchmark: it builds cmd/qserved, runs it as a
// child process on loopback UDP under four fixed workloads from one
// epoll-driven load generator, checks every reply, and reports the
// end-to-end metrics; -trace 1 adds an in-process traced run and layer
// probes for the per-layer metrics. See bench/README.md.
//
//	go run ./bench/qload                      all four workloads
//	go run ./bench/qload -trace 1             ... plus the per-layer metrics
//	go run ./bench/qload -smoke               quick self-test
//	go run ./bench/qload -aa 2                run twice, compare against the bounds
//	go run ./bench/qload -compare old.json new.json
//	go run ./bench/qload --workload seq_sat --seed 3 --seconds 15 --trace 0
//
// The last form is the benchmark contract's: one workload, and the last
// line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"qserve/internal/worldmap"
)

// defaultSeconds is the measured window, the run_seconds of
// BENCHMARK.json. The issue asked for 25 s; the contract's cap on total
// run time (92 runs in 3420 s) leaves room for 15.
const defaultSeconds = 15

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		wlName  = flag.String("workload", "", "run only this workload and end with the contract's JSON line")
		seed    = flag.Int64("seed", 1, "seed of every random choice the generator makes")
		seconds = flag.Int("seconds", defaultSeconds, "measured window per workload, seconds")
		trace   = flag.Int("trace", 0, "1: also run the traced in-process engine and the layer probes")
		smoke   = flag.Bool("smoke", false, "32 clients, 1 s warm-up, 2 s windows, 60 probe frames")
		aa      = flag.Int("aa", 0, "run the whole benchmark N times and hold the runs to BENCHMARK.json's bounds")
		compare = flag.Bool("compare", false, "compare two result.json files: -compare old.json new.json")
	)
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files: old.json new.json"))
		}
		return compareFiles(root, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}

	e, err := newEnv(root, *seed)
	if err != nil {
		return fail(err)
	}
	// Reap the server on every way out: normal return and panics through
	// the defer, signals through the handler, anything else through the
	// child's Pdeathsig.
	defer e.cs.killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.cs.killAll()
		os.Exit(130)
	}()

	pl := fullPlan(*seconds)
	set := workloads
	if *smoke {
		pl = smokePlan()
		set = nil
		for _, w := range workloads {
			set = append(set, w.smoke())
		}
	}
	if *wlName != "" {
		w, err := findWorkload(*wlName)
		if err != nil {
			return fail(err)
		}
		set = []workload{*w}
		if *smoke {
			set[0] = w.smoke()
		}
	}

	if *aa > 0 {
		return selfCheck(e, set, pl, *aa)
	}
	rep, err := e.benchmark(set, pl, *trace == 1)
	if werr := writeJSON(filepath.Join(e.outDir, "result.json"), rep); werr != nil && err == nil {
		err = werr
	}
	rep.print(os.Stdout)
	if err != nil {
		return fail(err)
	}
	if *wlName != "" {
		// The contract's result line, last on standard output.
		line, err := rep.contractLine(*trace == 1)
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
	}
	if !rep.correct() {
		fmt.Fprintln(os.Stderr, "qload: FAILED: operations failed or the reply oracle found violations")
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "qload:", err)
	return 1
}

// newEnv prepares what every run shares: bench/out, the map, and the
// qserved binary built from this checkout.
func newEnv(root string, seed int64) (*env, error) {
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out"), seed: seed}
	// One process on at most two cores: the event loop, and the main
	// goroutine that reads /proc at the window's edges.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if e.m, err = benchMap(); err != nil {
		return nil, err
	}
	e.mapFile = filepath.Join(e.outDir, "map.json")
	if err := e.m.SaveFile(e.mapFile); err != nil {
		return nil, err
	}
	if e.bin, e.buildS, err = buildServer(root, e.outDir); err != nil {
		return nil, err
	}
	return e, nil
}

// spawnsPerSide squared is how many spawn points benchMap gives a room.
const spawnsPerSide = 3

// benchMap is the map every workload runs on: qserved's default map
// (-mapseed 1) with a grid of spawn points in each room in place of the
// single one. The server hands out spawn points round-robin and never
// telefrags, so on the default map's 36 spawn points 160 players pile up
// inside each other and a third to a half of them stay wedged there; the
// cost of a pile grows with its size squared and swamps what the
// workloads are meant to measure (bench/README.md).
func benchMap() (*worldmap.Map, error) {
	mc := worldmap.DefaultConfig()
	mc.Seed = mapSeed
	m, err := worldmap.Generate(mc)
	if err != nil {
		return nil, err
	}
	const margin = 48.0 // as the generator keeps spawn points from the walls
	var spawns []worldmap.SpawnPoint
	// Cell by cell rather than room by room, so that consecutive joins
	// land in different rooms.
	for g := 0; g < spawnsPerSide*spawnsPerSide; g++ {
		for _, r := range m.Rooms {
			size := r.Bounds.Size()
			p := r.Bounds.Min
			p.X += margin + float64(g%spawnsPerSide)*(size.X-2*margin)/(spawnsPerSide-1)
			p.Y += margin + float64(g/spawnsPerSide)*(size.Y-2*margin)/(spawnsPerSide-1)
			p.Z = 25 // the generator's spawn height: just above the floor
			spawns = append(spawns, worldmap.SpawnPoint{Pos: p, Yaw: float64(g%8) * 45, RoomID: r.ID})
		}
	}
	m.Spawns = spawns
	m.Name += "+spawns"
	return m, m.Validate()
}

// moduleRoot finds the qserve module from the working directory: the
// benchmark builds cmd/qserved from source, so it only runs inside the
// repository.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(b)), "module qserve\n") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "qserved")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the qserve module: no go.mod with cmd/qserved above the working directory")
		}
		dir = parent
	}
}

// fingerprint says where and how a result was measured.
type fingerprint struct {
	NumCPU          int     `json:"nproc"`
	GeneratorProcs  int     `json:"gomaxprocs_generator"`
	ServerProcs     int     `json:"gomaxprocs_server"`
	GeneratorShards int     `json:"generator_shards"`
	GoVersion       string  `json:"go_version"`
	OSArch          string  `json:"os_arch"`
	Kernel          string  `json:"kernel"`
	Commit          string  `json:"commit"`
	Seed            int64   `json:"seed"`
	WarmS           float64 `json:"warm_s"`
	WindowS         float64 `json:"window_s"`
	TraceWindowS    float64 `json:"trace_window_s"`
	SetupsPerRun    int     `json:"setups_per_run"`
	ProbeFrames     int     `json:"probe_frames"`
	Network         string  `json:"network"`
	Time            string  `json:"time"`
}

func (e *env) fingerprint(pl plan) fingerprint {
	fp := fingerprint{
		NumCPU:         runtime.NumCPU(),
		GeneratorProcs: runtime.GOMAXPROCS(0),
		ServerProcs:    runtime.NumCPU(), // qserved keeps the runtime's default
		GoVersion:      runtime.Version(),
		OSArch:         runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:         "unknown",
		Commit:         "unknown",
		Seed:           e.seed,
		WarmS:          pl.warm.Seconds(),
		WindowS:        pl.window.Seconds(),
		TraceWindowS:   pl.traceWindow.Seconds(),
		SetupsPerRun:   pl.setups,
		ProbeFrames:    pl.probeFrames,
		Network:        "loopback, not a real link",
		Time:           time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; then the commit
	// stays unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if b, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(b))
	}
	return fp
}

// report is result.json.
type report struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Workloads   []*runResult `json:"workloads"`
	LayerProbes metricSet    `json:"layer_probes,omitempty"`
	Error       string       `json:"error,omitempty"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return r.Error == "" && len(r.Workloads) > 0
}

// benchmark runs the given workloads once each; with trace, each is
// followed by its traced in-process run, and the layer probes run once at
// the end. On failure it returns what it has, with the error recorded.
func (e *env) benchmark(set []workload, pl plan, trace bool) (rep *report, err error) {
	rep = &report{Fingerprint: e.fingerprint(pl)}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("benchmark panicked: %v", r)
		}
		if err != nil {
			rep.Error = err.Error()
		}
	}()
	var parts []tracePart
	for i := range set {
		wl := &set[i]
		fmt.Fprintf(os.Stderr, "qload: %s: %d clients, %s loop, %s\n", wl.name, wl.clients,
			wl.loop(), strings.Join(wl.serverArgs(e.mapFile), " "))
		res, err := e.run(wl, pl, false)
		rep.Workloads = append(rep.Workloads, res)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", wl.name, err)
		}
		if !trace {
			continue
		}
		fmt.Fprintf(os.Stderr, "qload: %s: traced in-process run\n", wl.name)
		tres, err := e.run(wl, pl, true)
		if err != nil {
			return rep, fmt.Errorf("%s traced: %w", wl.name, err)
		}
		res.PerLayer = engineLayers(tres.report)
		base, traced := res.EndToEnd["replies_per_s"].Value, tres.EndToEnd["replies_per_s"].Value
		res.Loadgen.set("loadgen.trace_overhead_pct", 100*ratio(base-traced, base), "%")
		if !tres.Correct {
			res.Correct, res.Valid = false, false
			res.Flags = append(res.Flags, fmt.Sprintf("traced run failed %d of %d operations: %v",
				tres.Failed, tres.Attempted, tres.Violations))
		}
		parts = append(parts, tres.parts...)
	}
	if trace {
		fmt.Fprintf(os.Stderr, "qload: layer probes, %d frames\n", pl.probeFrames)
		probes, part, overheadNs, err := runProbes(e, pl.probeFrames)
		if err != nil {
			return rep, fmt.Errorf("layer probes: %w", err)
		}
		rep.LayerProbes = probes
		parts = append(parts, part)
		// Compact: a span a line would be five times the size.
		b, err := json.Marshal(map[string]any{
			"clock":            "nanoseconds since the benchmark process started (monotonic)",
			"span_overhead_ns": overheadNs,
			"parts":            parts,
		})
		if err != nil {
			return rep, err
		}
		if err := os.WriteFile(filepath.Join(e.outDir, "trace.json"), b, 0o644); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// contractLine is the benchmark contract's result object for a
// one-workload run: the end-to-end metrics of BENCHMARK.json untraced,
// every per-layer one (engine trace, layer probes, generator health)
// traced.
func (r *report) contractLine(trace bool) (string, error) {
	res := r.Workloads[0]
	out := struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metricSet{}}
	if trace {
		from := map[string]metricSet{"A": res.PerLayer, "B": r.LayerProbes, "L": res.Loadgen}
		for _, pm := range perLayer {
			v, ok := from[pm.src][pm.name]
			if !ok {
				return "", fmt.Errorf("per-layer metric %s was not measured", pm.name)
			}
			out.Metrics[pm.name] = v
		}
	} else {
		for k, v := range res.EndToEnd {
			if k != "fail_ratio" { // carried by attempted/failed: the contract bars metrics that read 0
				out.Metrics[k] = v
			}
		}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func (m metricSet) print(w *os.File, indent string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s%-32s %14.4f %s\n", indent, k, m[k].Value, m[k].Unit)
	}
}

func (r *report) print(w *os.File) {
	for _, res := range r.Workloads {
		fmt.Fprintf(w, "\n%s  (%d clients, %s loop, %.0f s window, resp_samples = %d)\n",
			res.Workload, res.Clients, res.Loop, res.WindowS, res.RespSamples)
		res.EndToEnd.print(w, "  ")
		res.Loadgen.print(w, "  ")
		res.PerLayer.print(w, "    ")
		if len(res.Violations) > 0 {
			fmt.Fprintf(w, "  ORACLE VIOLATIONS: %v\n", res.Violations)
		}
		for _, f := range res.Flags {
			fmt.Fprintf(w, "  INVALID: %s\n", f)
		}
	}
	if len(r.LayerProbes) > 0 {
		fmt.Fprintf(w, "\nlayer probes\n")
		r.LayerProbes.print(w, "    ")
	}
	fmt.Fprintln(w)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

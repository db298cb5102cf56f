//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"qserve/internal/worldmap"
)

// metric is one named number with its unit, as result.json and the
// contract's result line carry it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// env is what every run of one benchmark invocation shares.
type env struct {
	root    string // module root: where go.mod, cmd/ and BENCHMARK.json are
	outDir  string // bench/out
	bin     string // built qserved
	mapFile string // benchMap, saved for qserved -map
	buildS  float64
	m       *worldmap.Map
	seed    int64
	cs      children
}

// runResult is one workload driven once.
type runResult struct {
	Workload    string           `json:"workload"`
	Why         string           `json:"why"`
	Loop        string           `json:"loop"`
	Clients     int              `json:"clients"`
	ServerCmd   []string         `json:"server_cmd"`
	WindowS     float64          `json:"window_s"`
	Correct     bool             `json:"correct"`
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	RespSamples int              `json:"resp_samples"`
	Valid       bool             `json:"valid"`
	Flags       []string         `json:"flags,omitempty"`
	Violations  map[string]int64 `json:"violations,omitempty"`
	EndToEnd    metricSet        `json:"end_to_end"`
	Loadgen     metricSet        `json:"loadgen"`
	PerLayer    metricSet        `json:"per_layer,omitempty"`

	report *engineReport // traced run only
	parts  []tracePart
}

// endToEnd names the seven end-to-end metrics every workload reports,
// tracing off. BENCHMARK.json fixes how far each may worsen.
var endToEnd = []layerMetric{
	{name: "setup_s", unit: "s"},
	{name: "replies_per_s", unit: "1/s"},
	{name: "resp_ms_p50", unit: "ms"},
	{name: "resp_ms_p95", unit: "ms"},
	{name: "srv_cpu_us_per_reply", unit: "us"},
	{name: "srv_peak_rss_mb", unit: "MB"},
	{name: "fail_ratio", unit: "ratio"},
}

// spansKept bounds trace.json: every span counts towards the layer
// totals, but only the first ones of a traced run are written out.
const spansKept = 10000

// run drives one workload once. Untraced, the server is the qserved
// child process and every end-to-end metric is measured; traced, the
// same engine runs in this process with spans round the generator's
// calls, and its accessors are read afterwards.
func (e *env) run(wl *workload, pl plan, traced bool) (res *runResult, err error) {
	window, setups := pl.window, pl.setups
	if traced {
		window, setups = pl.traceWindow, 1
		// The engine's threads share this process with the generator:
		// lift the generator's cap, and put it back on the way out.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	}
	res = &runResult{
		Workload: wl.name, Why: wl.why, Loop: wl.loop(), Clients: wl.clients,
		WindowS: window.Seconds(), EndToEnd: metricSet{}, Loadgen: metricSet{},
	}
	if !traced {
		res.ServerCmd = append([]string{"qserved"}, wl.serverArgs(e.mapFile)...)
	}

	var (
		h        *host
		clients  []*client
		setupS   []float64
		connects int64
		refused  int64
	)
	teardown := func() {
		for _, c := range clients {
			c.close()
		}
		clients = nil
		if h != nil {
			res.report = h.stop()
			h = nil
		}
	}
	defer teardown()

	for k := 0; k < setups; k++ {
		teardown()
		t0 := time.Now()
		if traced {
			h, err = startInProcess(wl, e.m)
		} else {
			h, err = startChild(&e.cs, e.bin, wl.serverArgs(e.mapFile))
		}
		if err != nil {
			return res, err
		}
		base, err := parseInet4(h.addr)
		if err != nil {
			return res, err
		}
		for i := 0; i < wl.clients; i++ {
			c, err := newClient(i, e.seed, e.m, wl.matchOf(i))
			if err != nil {
				return res, err
			}
			clients = append(clients, c)
		}
		failed, err := connectAll(clients, &base, 5*time.Second)
		if err != nil {
			return res, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		connects += int64(len(clients))
		refused += int64(failed)
	}

	sc := &schedule{closed: wl.closed, t0: nowNs() + int64(20*time.Millisecond)}
	sc.warmEnd = sc.t0 + int64(pl.warm)
	sc.windowEnd = sc.warmEnd + int64(window)

	var abort atomic.Bool
	deadline := time.AfterFunc(pl.warm+window+30*time.Second, func() { abort.Store(true) })
	defer deadline.Stop()

	// One event loop drives every client: on a two-core host a second
	// one lands on the server's core, and every reply then wakes a thread
	// that preempts the server that sent it (bench/README.md, finding 7).
	var live []*client
	for _, c := range clients {
		if c.accepted {
			live = append(live, c)
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer(spansKept)
	}
	gen := newShard(live, sc, tr, &abort)
	genErr := make(chan error, 1)
	go func() { genErr <- gen.run(sc) }()

	// The main goroutine only reads /proc at the window's two edges.
	var srvCPU, genCPU [2]int64
	var procErr error
	readCPU := func(k int) {
		genCPU[k], _ = taskCPUNs(os.Getpid()) // own /proc entry cannot be missing
		if h.pid != 0 {
			if srvCPU[k], err = taskCPUNs(h.pid); err != nil {
				procErr = fmt.Errorf("server CPU time: %w", err)
			}
		}
	}
	time.Sleep(time.Duration(sc.warmEnd - nowNs()))
	readCPU(0)
	time.Sleep(time.Duration(sc.windowEnd - nowNs()))
	readCPU(1)
	rssMB := 0.0
	if h.pid != 0 {
		if rssMB, err = peakRSSMB(h.pid); err != nil {
			procErr = fmt.Errorf("server peak RSS: %w", err)
		}
	}
	if err := <-genErr; err != nil {
		return res, err
	}
	if procErr != nil {
		return res, procErr
	}
	st := &gen.st
	if tr != nil {
		res.parts = append(res.parts, tr.part("engine:"+wl.name))
	}
	// Liveness: clients must have moved during the window. Not every one
	// can: the server spawns players into each other and into passers-by,
	// and those stay wedged until one dies (bench/README.md). Nine in ten
	// must; the rest are reported, not failed.
	var still int64
	for _, c := range live {
		if c.moved < 1 {
			still++
		}
	}
	if still*10 > int64(len(live)) {
		st.violations[vStuck] = still
	}
	teardown()

	fc := countFailures(st, connects, refused)
	res.Attempted, res.Failed, res.Correct = fc.attempted, fc.failed, fc.failed == 0 && st.replies > 0
	res.RespSamples = len(st.lat)
	for v, n := range st.violations {
		if n > 0 {
			if res.Violations == nil {
				res.Violations = map[string]int64{}
			}
			res.Violations[violationNames[v]] = n
		}
	}
	slices.Sort(st.lat)
	slices.Sort(st.late)
	replies := float64(st.replies)

	ee := res.EndToEnd
	ee.set("setup_s", median(setupS), "s")
	ee.set("replies_per_s", replies/window.Seconds(), "1/s")
	ee.set("resp_ms_p50", ms(percentile(st.lat, 50)), "ms")
	ee.set("resp_ms_p95", ms(percentile(st.lat, 95)), "ms")
	if replies > 0 {
		ee.set("srv_cpu_us_per_reply", float64(srvCPU[1]-srvCPU[0])/1e3/replies, "us")
	} else {
		ee.set("srv_cpu_us_per_reply", 0, "us")
	}
	ee.set("srv_peak_rss_mb", rssMB, "MB")
	ee.set("fail_ratio", fc.ratio(), "ratio")

	lg := res.Loadgen
	if d := srvCPU[1] - srvCPU[0]; d > 0 {
		lg.set("loadgen.cpu_share", float64(genCPU[1]-genCPU[0])/float64(d), "ratio")
	} else {
		lg.set("loadgen.cpu_share", 0, "ratio")
	}
	lg.set("loadgen.late_ms_p99", ms(percentile(st.late, 99)), "ms")
	lg.set("loadgen.resp_ms_p99", ms(percentile(st.lat, 99)), "ms")
	lg.set("loadgen.resp_ms_max", ms(percentile(st.lat, 100)), "ms")
	lg.set("loadgen.build_s", e.buildS, "s")
	lg.set("loadgen.resends", float64(st.resends), "count")
	lg.set("loadgen.send_errors", float64(st.sendErrs), "count")
	lg.set("loadgen.still_clients", float64(still), "count")

	// A generator that ran late or ate too much of the machine measured
	// itself, not the server: say so.
	if lg["loadgen.late_ms_p99"].Value > 2 {
		res.Flags = append(res.Flags, "generator ran late: loadgen.late_ms_p99 > 2 ms")
	}
	if !traced && lg["loadgen.cpu_share"].Value > 0.6 {
		res.Flags = append(res.Flags, "generator too heavy: loadgen.cpu_share > 0.6")
	}
	res.Valid = len(res.Flags) == 0
	return res, nil
}

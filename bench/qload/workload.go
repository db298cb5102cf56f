//go:build linux

package main

import (
	"fmt"
	"strconv"
	"time"
)

// mapSeed seeds the map (qserved's own default) and the worlds built on it.
const mapSeed = 1

// workload is one traffic mix against one engine configuration. The
// names are fixed: later issues cite them.
type workload struct {
	name string
	why  string

	// Engine, as qserved flags and as the in-process wiring reads them.
	threads    int    // -threads (0 = sequential engine)
	locking    string // -locking
	steal      bool   // -steal
	balance    bool   // -balance
	matches    int    // -matches (0 = one match)
	maxClients int    // -maxclients

	clients       int
	closed        bool // closed loop (one move outstanding) or 30 Hz open loop
	activeMatches int  // client i joins match m{i mod activeMatches}
}

var workloads = []workload{
	{
		name:       "seq_sat",
		why:        "160 closed-loop clients keep the sequential engine busy: capacity of the per-request path, no locks",
		maxClients: 256, clients: 160, closed: true,
	},
	{
		name:    "par2_sat",
		why:     "the same 160 closed-loop clients through 2 threads: region locking, barriers, stealing, balancing, mux",
		threads: 2, locking: "optimized", steal: true, balance: true,
		// BlockAssign spreads clients over threads by maxclients, so it has
		// to equal the client count or thread 0 gets them all.
		maxClients: 160, clients: 160, closed: true,
	},
	{
		name:       "seq_paced",
		why:        "128 open-loop 30 Hz clients in 8 bursts: 16-request frames, so per-frame fixed costs set the latency",
		maxClients: 256, clients: 128,
	},
	{
		name:    "match_paced",
		why:     "256 open-loop 30 Hz clients in 16 of 128 matches: scheduler cadence, lobby routing, idle-match cost",
		matches: 128, maxClients: 32, clients: 256, activeMatches: 16,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to 32 clients for the quick self-test.
func (w workload) smoke() workload {
	w.clients = 32
	if w.threads > 0 {
		w.maxClients = 32 // see par2_sat
	}
	return w
}

// serverArgs is the qserved command line for this workload.
func (w *workload) serverArgs(mapFile string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-stats", "0", "-map", mapFile}
	if w.matches > 0 {
		args = append(args, "-matches", strconv.Itoa(w.matches))
	} else {
		args = append(args, "-threads", strconv.Itoa(w.threads))
		if w.locking != "" {
			args = append(args, "-locking", w.locking)
		}
		if w.steal {
			args = append(args, "-steal")
		}
		if w.balance {
			args = append(args, "-balance")
		}
	}
	return append(args, "-maxclients", strconv.Itoa(w.maxClients))
}

// loop names the pacing for reports.
func (w *workload) loop() string {
	if w.closed {
		return "closed"
	}
	return "open 30 Hz"
}

// matchOf names the match client i asks the lobby for.
func (w *workload) matchOf(i int) string {
	if w.activeMatches == 0 {
		return ""
	}
	return fmt.Sprintf("m%d", i%w.activeMatches)
}

// plan is the timing of a run. All four workloads share one plan, so a
// tighter time cap shrinks every window equally.
type plan struct {
	warm        time.Duration // players leave spawn, buffers reach high water
	window      time.Duration // measured
	traceWindow time.Duration // measured window of the traced in-process run
	setups      int           // server starts per run; setup_s is their median
	probeFrames int           // frames of the layer-probe session
}

func fullPlan(seconds int) plan {
	p := plan{
		warm:        3 * time.Second,
		window:      time.Duration(seconds) * time.Second,
		traceWindow: 8 * time.Second,
		setups:      9,
		probeFrames: 600,
	}
	if p.traceWindow > p.window {
		p.traceWindow = p.window
	}
	return p
}

func smokePlan() plan {
	return plan{
		warm: time.Second, window: 2 * time.Second, traceWindow: 2 * time.Second,
		setups: 1, probeFrames: 60,
	}
}

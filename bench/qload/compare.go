//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// bound is one end-to-end metric of BENCHMARK.json: which way is better
// and by what share of the old value it may get worse.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end metrics and their bounds from the
// BENCHMARK.json at the module root: the one place they are fixed.
func loadBounds(root string) ([]bound, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists no end_to_end metrics")
	}
	return spec.EndToEnd, nil
}

// worseBy is how much worse now is than before, as a share of before;
// negative when it got better.
func (b bound) worseBy(before, now float64) float64 {
	if before == 0 {
		return 0
	}
	if b.Better == "higher" {
		return (before - now) / before
	}
	return (now - before) / before
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) workload(name string) *runResult {
	for _, w := range r.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// compareFiles holds every (end-to-end metric, workload) pair of the new
// result to its bound against the old one, and fail_ratio to no increase.
func compareFiles(root, oldPath, newPath string) int {
	bounds, err := loadBounds(root)
	if err != nil {
		return fail(err)
	}
	before, err := loadReport(oldPath)
	if err != nil {
		return fail(err)
	}
	now, err := loadReport(newPath)
	if err != nil {
		return fail(err)
	}
	bad := 0
	fmt.Printf("%-12s %-22s %14s %14s %9s %7s\n", "workload", "metric", "old", "new", "worse by", "bound")
	for _, nw := range now.Workloads {
		ow := before.workload(nw.Workload)
		if ow == nil {
			fmt.Printf("%-12s only in the new result\n", nw.Workload)
			continue
		}
		for _, b := range bounds {
			o, n := ow.EndToEnd[b.Name].Value, nw.EndToEnd[b.Name].Value
			w := b.worseBy(o, n)
			verdict := ""
			if w > b.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Printf("%-12s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", nw.Workload, b.Name, o, n, 100*w, 100*b.Bound, verdict)
		}
		if o, n := ow.EndToEnd["fail_ratio"].Value, nw.EndToEnd["fail_ratio"].Value; n > o {
			fmt.Printf("%-12s %-22s %14.6f %14.6f  REGRESSION: any increase counts\n", nw.Workload, "fail_ratio", o, n)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("%d pairs outside their bounds\n", bad)
		return 1
	}
	return 0
}

// aaPair is one (metric, workload) pair of the A/A check: the same
// binary measured n times must agree with itself within the bound.
type aaPair struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Spread   float64   `json:"spread"` // (max - min) / median
	Bound    float64   `json:"bound"`
	OK       bool      `json:"ok"`
}

// selfCheck runs the whole benchmark n times on the same binary and
// checks that every pair's spread stays within its bound; aa.json keeps
// the spreads next to the bounds.
func selfCheck(e *env, set []workload, pl plan, n int) int {
	bounds, err := loadBounds(e.root)
	if err != nil {
		return fail(err)
	}
	var reps []*report
	for i := 0; i < n; i++ {
		fmt.Fprintf(os.Stderr, "qload: A/A run %d of %d\n", i+1, n)
		rep, err := e.benchmark(set, pl, false)
		if err != nil {
			return fail(err)
		}
		if !rep.correct() {
			rep.print(os.Stdout)
			return fail(fmt.Errorf("A/A run %d failed operations", i+1))
		}
		reps = append(reps, rep)
	}
	var pairs []aaPair
	bad := 0
	for wi := range set {
		for _, b := range bounds {
			p := aaPair{Workload: set[wi].name, Metric: b.Name, Unit: b.Unit, Bound: b.Bound}
			for _, r := range reps {
				p.Values = append(p.Values, r.Workloads[wi].EndToEnd[b.Name].Value)
			}
			p.Spread = ratio(slices.Max(p.Values)-slices.Min(p.Values), median(p.Values))
			p.OK = p.Spread <= b.Bound
			if !p.OK {
				bad++
			}
			pairs = append(pairs, p)
			fmt.Printf("%-12s %-22s spread %5.1f%%  bound %3.0f%%  %v\n", p.Workload, p.Metric, 100*p.Spread, 100*p.Bound, p.Values)
		}
	}
	if err := writeJSON(filepath.Join(e.outDir, "aa.json"), pairs); err != nil {
		return fail(err)
	}
	if bad > 0 {
		fmt.Printf("A/A: %d of %d pairs spread wider than their bound\n", bad, len(pairs))
		return 1
	}
	fmt.Printf("A/A: all %d pairs within their bounds\n", len(pairs))
	return 0
}

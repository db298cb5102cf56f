// qbench regenerates the paper's evaluation: every table and figure of
// "Parallelization and Performance of Interactive Multiplayer Game
// Servers" (IPPS 2004), on the simulated machine. Output is plain-text
// tables with the same rows/series the paper plots.
//
// Usage:
//
//	qbench                  # run everything (the full reproduction)
//	qbench -exp fig5        # one experiment: table1, fig1..fig7c,
//	                        # imbalance, coverage, wait, saturation
//	qbench -dur 120         # paper-length two-minute virtual runs
//	qbench -o EXPERIMENTS.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qserve/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig1, fig2, fig3, fig4, fig5, fig6, fig7a, fig7b, fig7c, imbalance, coverage, wait, saturation, ablations, mapstudy, visibility, balance, lockwall, durability")
	dur := flag.Float64("dur", 10, "virtual seconds per configuration (paper: 120)")
	seed := flag.Int64("seed", 1, "experiment seed")
	out := flag.String("o", "", "also write the report to this file")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	opts := experiments.Options{DurationS: *dur, Seed: *seed}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "... "+format+"\n", args...)
		}
	}

	var report string
	var err error
	switch strings.ToLower(*exp) {
	case "all":
		report, err = experiments.All(opts)
	case "table1":
		report = experiments.Table1()
	case "fig1":
		report, err = experiments.Fig1(opts)
	case "fig2":
		report, err = experiments.Fig2(opts)
	case "fig3":
		report, err = experiments.Fig3(opts)
	case "fig4":
		report, err = experiments.Fig4(opts)
	case "fig5":
		report, err = experiments.Fig5(opts)
	case "fig6":
		report, err = experiments.Fig6(opts)
	case "fig7a":
		report, err = experiments.Fig7a(opts)
	case "fig7b":
		report, err = experiments.Fig7b(opts)
	case "fig7c":
		report, err = experiments.Fig7c(opts)
	case "imbalance":
		report, err = experiments.Imbalance(opts)
	case "coverage":
		report, err = experiments.Coverage(opts)
	case "wait":
		report, err = experiments.WaitAnalysis(opts)
	case "saturation":
		report, err = experiments.Saturation(opts)
	case "ablations":
		report, err = experiments.Ablations(opts)
	case "mapstudy":
		report, err = experiments.MapStudy(opts)
	case "visibility":
		report, err = experiments.Visibility(opts)
	case "balance":
		report, err = experiments.Balance(opts)
	case "lockwall":
		report, err = experiments.Lockwall(opts)
	case "durability":
		report, err = experiments.Durability(opts)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// qbench regenerates the paper's evaluation: every table and figure of
// "Parallelization and Performance of Interactive Multiplayer Game
// Servers" (IPPS 2004), on the simulated machine. Output is plain-text
// tables with the same rows/series the paper plots.
//
// Usage:
//
//	qbench                  # run everything (the full reproduction)
//	qbench -exp fig5        # one experiment (qbench -h lists the names)
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
	run := map[string]func(experiments.Options) (string, error){"all": experiments.All}
	names := []string{"all"}
	for _, e := range experiments.Registry() {
		run[e.Name] = e.Run
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(names, ", "))
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

	fn, ok := run[strings.ToLower(*exp)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have: %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	report, err := fn(opts)
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

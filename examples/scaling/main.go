// Scaling: the paper's headline experiment in miniature — how many
// players each server configuration supports, on the simulated
// 8-hardware-context machine. Prints the Fig 5/6 response-rate series
// and the supported-player summary.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"qserve/internal/experiments"
	"qserve/internal/locking"
	"qserve/internal/simserver"
)

func main() {
	opts := experiments.Options{DurationS: 5, Seed: 1}

	fmt.Println("response time (ms) by configuration and player count")
	fmt.Println("players | seq    | 2T-cons | 4T-cons | 8T-cons | 8T-opt")
	fmt.Println("--------+--------+---------+---------+---------+-------")
	for _, players := range []int{64, 96, 128, 144, 160} {
		fmt.Printf("%7d |", players)
		for _, cfg := range []simserver.Config{
			mk(opts, players, 0, nil),
			mk(opts, players, 2, locking.Conservative{}),
			mk(opts, players, 4, locking.Conservative{}),
			mk(opts, players, 8, locking.Conservative{}),
			mk(opts, players, 8, locking.Optimized{}),
		} {
			res, err := simserver.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %6.1f |", res.ResponseTimeMs())
		}
		fmt.Println()
	}

	fmt.Println()
	r, err := experiments.Saturation(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(r.Render())
}

// mk is one configuration; threads 0 is the sequential server.
func mk(o experiments.Options, players, threads int, strat locking.Strategy) simserver.Config {
	return simserver.Config{
		MapConfig: experiments.PaperMapConfig(o.Seed),
		Players:   players,
		Threads:   threads,
		Strategy:  strat,
		DurationS: o.DurationS,
		Seed:      o.Seed,
	}
}

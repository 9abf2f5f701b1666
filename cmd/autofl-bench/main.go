// Command autofl-bench regenerates the paper's evaluation: every
// figure and table of the AutoFL paper (MICRO 2021), printed as text
// tables next to the paper's reported claims. `autofl-bench -list`
// prints the experiment identifiers; the experiment table in the
// repository README maps each one to its paper reference.
//
// Examples:
//
//	autofl-bench                 # run everything at full horizons
//	autofl-bench -quick          # 5x shorter horizons (smoke test)
//	autofl-bench -run fig08      # a single experiment
//	autofl-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"autofl/internal/experiments"
)

func main() {
	var (
		run   = flag.String("run", "all", "experiment id to run, or 'all'")
		quick = flag.Bool("quick", false, "shorter horizons (noisier figures, much faster)")
		seed  = flag.Uint64("seed", 42, "random seed")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick}

	if *run == "all" {
		start := time.Now()
		for _, id := range experiments.IDs() {
			runOne(id, opts)
		}
		fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	runOne(*run, opts)
}

func runOne(id string, opts experiments.Options) {
	runner, ok := experiments.ByID(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "autofl-bench: unknown experiment %q (see -list)\n", id)
		os.Exit(1)
	}
	start := time.Now()
	fig := runner(opts)
	fmt.Print(fig.Render())
	fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
}

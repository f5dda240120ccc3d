// Command aspbench regenerates every table and figure of the paper's
// evaluation (§3) against the simulated testbed, printing the same rows
// and series the paper reports. The drivers live in
// internal/experiments; this wrapper parses flags.
//
// Usage:
//
//	aspbench -exp fig3      code-generation time table
//	aspbench -exp fig6      audio bandwidth vs time under stepped load
//	aspbench -exp fig7      silent periods with/without adaptation
//	aspbench -exp fig8      HTTP throughput vs offered load (4 configs)
//	aspbench -exp mpeg      server load vs number of viewers
//	aspbench -exp engines   per-packet cost: interp vs jit vs native
//	aspbench -exp all       everything above
//
// Every experiment runs its ASPs on the JIT, the paper's production
// engine; -exp engines measures the interpreter against it.
//
// Grid experiments run their cells on GOMAXPROCS worker goroutines
// (GOMAXPROCS=1 runs them in sequence); the output is byte-identical at
// any width.
// -shards runs the scale experiment's city — the only topology that
// declares shard boundaries — on up to that many parallel event loops;
// no other experiment reads it, and the output is byte-identical at any
// shard count.
// -scale-full switches the scale experiment to the full metropolitan
// city. -cpuprofile/-memprofile write pprof profiles of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"planp.dev/planp/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (or 'all')")
	shards := flag.Int("shards", 1, "parallel event loops for -exp scale, the only experiment that reads it (1 = one event loop)")
	scaleFull := flag.Bool("scale-full", false, "run the scale experiment on the full metropolitan city (minutes of CPU)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	all := experiments.All()
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: aspbench -exp NAME")
		for _, e := range all {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", e.Name, e.Desc)
		}
		fmt.Fprintln(os.Stderr, "  all              run everything")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aspbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "aspbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	opts := experiments.Options{
		Shards:    *shards,
		ScaleFull: *scaleFull,
	}
	start := time.Now()
	ran := false
	for _, e := range all {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		ran = true
		fmt.Printf("==== %s: %s ====\n", e.Name, e.Desc)
		if err := e.Run(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "aspbench %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "aspbench: unknown experiment %q; valid names:\n", *exp)
		for _, e := range all {
			fmt.Fprintf(os.Stderr, "  %s\n", e.Name)
		}
		fmt.Fprintln(os.Stderr, "  all")
		os.Exit(2)
	}
	fmt.Printf("(total wall time %v — the experiments above cover %s of virtual time)\n",
		time.Since(start).Round(time.Millisecond), "minutes to hours")

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aspbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "aspbench: %v\n", err)
			os.Exit(1)
		}
	}
}

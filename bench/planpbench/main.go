// planpbench is the repository's benchmark: five workloads with checked
// outputs, three end-to-end metrics each, and a separate traced pass
// that measures every layer from outside. See
// bench/README.md for why each workload exists and how to read the
// numbers, and BENCHMARK.json for the contract.
//
//	go run ./bench/planpbench -workload all -seed 1        # every workload
//	go run ./bench/planpbench -workload deploy -seed 2     # one workload
//	go run ./bench/planpbench -workload deploy -trace 1    # traced pass
//	go run ./bench/planpbench -smoke                       # one tiny round each, checks on
//
// The last line of standard output is one JSON object with exactly the
// keys correct, attempted, failed and metrics. The exit code is 0 only
// if every output check passed and no op failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Bounds by which an end-to-end metric may worsen before a change
// counts as a regression; BENCHMARK.json repeats them. Allocation per op
// repeats to four digits and the floor rate to two; a cold set-up is a
// tenth of a second of wall clock, the machine's share included.
const (
	boundOps   = 0.15
	boundSetup = 0.25
	boundAlloc = 0.02
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("planpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "all", "workload to run: all, or one of sim_gateway, sim_city, rt_gateway, compile, deploy")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "time budget of a workload's timed rounds, in seconds")
	trace := fs.String("trace", "0", "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics), spans written to bench/out/; any other value: traced pass, spans written to that file")
	smoke := fs.Bool("smoke", false, "run every selected workload for one tiny round with all output checks on")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "planpbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	sz := sizes{smoke: *smoke}
	// One core: see workload.go. Restored for a caller in the same process.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	host := readHost()
	fmt.Fprintf(stdout, "planpbench: %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g trace=%s smoke=%v\n",
		host.GoVersion, host.GOOS, host.GOARCH, host.NProc, host.GOMAXPROCS, *seed, *seconds, *trace, *smoke)

	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		if *trace == "0" {
			m, err := measure(name, *seed, *seconds, sz)
			if err != nil {
				fmt.Fprintf(stderr, "planpbench: %v\n", err)
				return 1
			}
			printMeasurement(stdout, m)
			out.Attempted += m.Attempted
			out.Failed += m.Failed
			out.Correct = out.Correct && m.Correct
			out.Metrics[prefix+"ops_s"] = metricValue{m.OpsS, "1/s"}
			out.Metrics[prefix+"setup_s"] = metricValue{m.SetupS, "s"}
			out.Metrics[prefix+"alloc_b_op"] = metricValue{m.AllocBOp, "B"}
			continue
		}
		path := *trace
		switch {
		case path == "1":
			path = filepath.Join("bench", "out", fmt.Sprintf("trace-%s-seed%d.json", name, *seed))
		case len(names) > 1: // one file per workload
			ext := filepath.Ext(path)
			path = strings.TrimSuffix(path, ext) + "-" + name + ext
		}
		t, err := tracedPass(name, *seed, sz, path, host)
		if err != nil {
			fmt.Fprintf(stderr, "planpbench: %v\n", err)
			return 1
		}
		printTraced(stdout, t)
		out.Attempted += t.Attempted
		out.Failed += t.Failed
		out.Correct = out.Correct && t.Correct
		for _, lm := range t.Layers {
			out.Metrics[prefix+lm.Name] = metricValue{lm.Value, lm.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "planpbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

func printMeasurement(w io.Writer, m *measurement) {
	fmt.Fprintf(w, "\nworkload %s\n  link: %s\n", m.Workload, m.Link)
	flag := ""
	if m.Disturbed {
		flag = "  DISTURBED: the machine moved by more than 15 % while this ran"
	}
	fmt.Fprintf(w, "  host.ref_mops_s before=%.1f after=%.1f%s\n", m.RefBefore, m.RefAfter, flag)
	row := func(name string, v float64, unit string, n int, what string, bound float64) {
		fmt.Fprintf(w, "  %-11s %16.6f %-4s n=%-6d %-7s bound=%.2f\n", name, v, unit, n, what, bound)
	}
	row("ops_s", m.OpsS, "1/s", m.Quanta, "quanta", boundOps)
	row("setup_s", m.SetupS, "s", m.Setups, "setups", boundSetup)
	row("alloc_b_op", m.AllocBOp, "B", m.Rounds, "rounds", boundAlloc)
	fmt.Fprintf(w, "  for the record, the machine's share included: %.4f ops per wall second (median of %d rounds)\n", m.WallOpsS, m.Rounds)
	if m.LatRounds > 0 {
		fmt.Fprintf(w, "  for the record, the machine's share included: op latency p50 %.2f us, p90 %.2f us (medians of %d rounds)\n", m.LatP50, m.LatP90, m.LatRounds)
	}
	fmt.Fprintf(w, "  timed %.1f s, gc %.1f %% of cpu; attempted=%d failed=%d correct=%v\n",
		m.TimedS, m.GCShare*100, m.Attempted, m.Failed, m.Correct)
	if m.CheckErr != "" {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", m.CheckErr)
	}
}

func printTraced(w io.Writer, t *traced) {
	fmt.Fprintf(w, "\nworkload %s (traced pass)\n  link: %s\n  spans: %s\n", t.Workload, t.Link, t.TracePath)
	names := make([]string, 0, len(t.Aggregates))
	for n := range t.Aggregates {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-22s %10s %14s %14s\n", "span", "count", "total ms", "self ms")
	for _, n := range names {
		a := t.Aggregates[n]
		fmt.Fprintf(w, "  %-22s %10d %14.3f %14.3f\n", n, a.Count, float64(a.SumNs)/1e6, float64(a.SelfNs)/1e6)
	}
	fmt.Fprintf(w, "  %-34s %16s %-7s %s\n", "layer metric", "value", "unit", "samples")
	layer := -1
	for _, lm := range t.Layers {
		if l := layerOf(lm.Name); l != layer {
			layer = l
			fmt.Fprintf(w, "  %s should move: %s\n", layers[l].name, layers[l].moves)
		}
		if lm.N == 0 {
			continue // another workload's rung: 0 in the result line, not shown here
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-7s n=%d\n", lm.Name, lm.Value, lm.Unit, lm.N)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", t.Attempted, t.Failed, t.Correct)
	if t.CheckErr != "" {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", t.CheckErr)
	}
}

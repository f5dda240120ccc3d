// The traced pass: the workload's own rounds under the span recorder,
// the same rounds again without it, the output checks, then the ladder
// of layers.go. It is never used for end-to-end numbers.
package main

import (
	"os"
	"path/filepath"
	"sort"
	"time"
)

// traced is one workload's traced-pass result.
type traced struct {
	Workload, Link, TracePath string
	Aggregates                map[string]spanAgg
	Layers                    []layerMetric
	Attempted, Failed         int
	Correct                   bool
	CheckErr                  string
}

// sharer is implemented by workloads whose traced rounds attribute
// their time to layers.
type sharer interface {
	shares(aggs map[string]spanAgg, wall time.Duration) map[string]float64
}

// ownNames are the rungs that describe one workload's own rounds, in
// print order. A traced pass measures those of its workload; the others
// read 0 there, because the pipeline wants every name from every pass
// (-workload all fills them all).
func ownNames() []string {
	names := []string{
		"planprt.busy_share.sim_gateway", "planprt.busy_share.rt_gateway",
		"netsim.self_share.sim_gateway", "rtnet.self_share.rt_gateway", "fleet.self_share",
	}
	for _, w := range workloadNames {
		names = append(names, "trace.overhead_ratio."+w)
	}
	return names
}

// tracedPass runs tracedSeconds of rounds under the tracer, as many without
// it for the overhead ratio, the output checks, and the ladder.
func tracedPass(name string, seed int64, sz sizes, path string, host hostRecord) (*traced, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	defer w.close()
	t := &traced{Workload: name, Link: w.link(), TracePath: path}
	ref0 := refKernel()
	tr := newTracer()

	rate := func(tr *tracer) (float64, time.Duration, error) {
		if _, err := coldSetup(w, tr); err != nil {
			return 0, 0, err
		}
		tot, err := timedRounds(w, tracedSeconds, sz, tr)
		if err != nil {
			return 0, 0, err
		}
		t.Attempted += tot.ops
		t.Failed += tot.failed
		if t.CheckErr == "" {
			t.CheckErr = tot.checkErr
		}
		return tot.floorOpsS, tot.wall, nil
	}
	cpu0 := readCPU()
	tracedRate, tracedWall, err := rate(tr)
	if err != nil {
		return nil, err
	}
	untracedRate, _, err := rate(nil)
	if err != nil {
		return nil, err
	}
	gc := gcShare(cpu0, readCPU())
	if t.CheckErr == "" {
		if err := w.check(); err != nil {
			t.CheckErr, t.Failed = err.Error(), t.Attempted
		}
	}
	t.Correct = t.Failed == 0 && t.CheckErr == ""

	t.Aggregates = tr.aggregates()
	rungs, err := ladder(seed, sz)
	if err != nil {
		return nil, err
	}
	own := map[string]float64{}
	if s, ok := w.(sharer); ok {
		own = s.shares(t.Aggregates, tracedWall)
	}
	if untracedRate > 0 {
		own["trace.overhead_ratio."+name] = tracedRate / untracedRate
	}
	ref1 := refKernel()
	rungs = append(rungs,
		layerMetric{"host.ref_mops_s", (ref0 + ref1) / 2, "Mops/s", 2},
		layerMetric{"host.gc_cpu_share", gc, "ratio", 1},
	)
	for _, n := range ownNames() {
		samples := 0
		if _, ok := own[n]; ok {
			samples = 1
		}
		rungs = append(rungs, layerMetric{n, own[n], "ratio", samples})
	}
	sort.SliceStable(rungs, func(i, j int) bool { return layerOf(rungs[i].Name) < layerOf(rungs[j].Name) })
	t.Layers = rungs

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path, name, seed, host); err != nil {
		return nil, err
	}
	return t, nil
}

func (w *simGateway) shares(aggs map[string]spanAgg, _ time.Duration) map[string]float64 {
	const root = "sim_gateway.round"
	return map[string]float64{
		"planprt.busy_share.sim_gateway": share(aggs, "planprt.process", root),
		"netsim.self_share.sim_gateway":  share(aggs, "netsim.run", root),
	}
}

// On the live cluster the gateway's Process time is set against wall
// time over both phases (how busy the gateway goroutine was), and
// rtnet's share is what is left of a window-1 request's latency once
// Process is taken out: the hand-offs between node goroutines, plus the
// server and client apps.
func (w *rtGateway) shares(aggs map[string]spanAgg, wall time.Duration) map[string]float64 {
	out := map[string]float64{"rtnet.self_share.rt_gateway": share(aggs, "rt.op", "rt.op")}
	if wall > 0 {
		out["planprt.busy_share.rt_gateway"] = float64(aggs["planprt.process"].SumNs) / float64(wall)
	}
	return out
}

func (w *deploy) shares(aggs map[string]spanAgg, _ time.Duration) map[string]float64 {
	return map[string]float64{"fleet.self_share": share(aggs, "fleet.deploy", "fleet.deploy")}
}

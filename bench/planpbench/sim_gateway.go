// sim_gateway — §3.2 / figure 8: the httpd cluster with the gateway ASP
// on the simulator, driven past saturation.
//
// Why: planprt.Runtime.Process is about 60 % of the simulator loop here
// (and most of the GC on top), so this is the workload on which an
// engine, codec or runtime-dispatch gain shows; sim_city is the one on
// which it does not.
package main

import (
	"fmt"
	"time"

	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// gwOfferedRPS is well past the gateway's capacity, as httpd.Saturation.
const gwOfferedRPS = 1200

// gwSlice is the virtual time one quantum of the run advances the
// simulator by: 70 µs of wall time under load, at its fastest.
const gwSlice = 5 * time.Millisecond

// gwOutcome is what a round's simulated clients saw; two rounds at one
// seed must agree exactly, and so must the native gateway.
type gwOutcome struct {
	completed, warmed int64
	meanLat           time.Duration
	events            int
	gwDrops           int64 // packets the gateway node discarded
	queueDrops        int64 // packets the two LAN segments' queues discarded
	processCalls      int64
	exceptions        int64
}

type simGateway struct {
	seed    int64
	virtual time.Duration        // simulated seconds of offered load per round
	first   *gwOutcome           // first round's outcome (determinism reference)
	capture *[]*substrate.Packet // when set, the gateway's inbound packets are cloned here
	quanta  []float64            // the last round's quanta, µs
}

func newSimGateway(seed int64, sz sizes) *simGateway {
	// Short, so that a run repeats it some four hundred times: a position
	// in the round is a kind, and a kind's floor takes that many samples.
	return &simGateway{seed: seed, virtual: time.Duration(sz.pick(2, 1)) * time.Second}
}

func (w *simGateway) name() string { return "sim_gateway" }
func (w *simGateway) link() string { return "in-process simulator (netsim, virtual time)" }
func (w *simGateway) phases() []phase {
	// Quantum 0 is the build, the rest are gwSlice of virtual time each;
	// rounds at one seed repeat each other event for event, so a
	// position in the round is a kind.
	return []phase{{name: "build+run", share: 1, rate: true}}
}

// setup has nothing to keep: every round builds its own world, which is
// what cmd/aspbench pays per grid cell.
func (w *simGateway) setup(*tracer) error { w.first = nil; return nil }
func (w *simGateway) close()              {}

// processShim times the gateway's packet processor from outside.
type processShim struct {
	inner   substrate.Processor
	tr      *tracer
	op      int64
	calls   int64
	capture *[]*substrate.Packet
}

func (s *processShim) Process(pkt *substrate.Packet, in substrate.Iface) bool {
	if s.capture != nil && len(*s.capture) < captureMax {
		*s.capture = append(*s.capture, pkt.Clone())
	}
	start := s.tr.now()
	ok := s.inner.Process(pkt, in)
	s.tr.finish("planprt.process", "netsim.run", s.op, s.calls, start, s.tr.now())
	s.calls++
	return ok
}

// captureMax bounds how many gateway packets a capturing round keeps
// for the codec replay.
const captureMax = 4096

// round is httpd.RunPoint taken apart so the build, the run and the
// gateway's Process calls can be timed separately: same testbed, same
// clients, same drain.
func (w *simGateway) round(_ int, idx int64, tr *tracer) (roundResult, error) {
	out, err := w.simulate(httpd.VariantASPGW, idx, tr)
	if err != nil {
		return roundResult{}, err
	}
	res := roundResult{ops: int(out.completed), quanta: w.quanta}
	if w.first == nil {
		w.first = &out
	} else if *w.first != out {
		res.failed = res.ops
		return res, fmt.Errorf("%w: two rounds at seed %d disagree: %+v then %+v", errCheck, w.seed, *w.first, out)
	}
	if out.completed == 0 || out.exceptions != 0 {
		res.failed = res.ops
		return res, fmt.Errorf("%w: %d completed, %d ASP exceptions", errCheck, out.completed, out.exceptions)
	}
	return res, nil
}

// simulate builds the cluster with the given gateway variant and runs
// it.
func (w *simGateway) simulate(variant httpd.Variant, idx int64, tr *tracer) (gwOutcome, error) {
	rootStart := tr.begin("sim_gateway.round", idx)
	w.quanta = w.quanta[:0]
	wall := time.Now()
	lap := func() {
		now := time.Now()
		w.quanta = append(w.quanta, float64(now.Sub(wall))/1e3)
		wall = now
	}

	buildStart := tr.now()
	cfg := httpd.Config{Variant: variant, Engine: planprt.EngineJIT, Seed: w.seed}
	tb, err := httpd.NewTestbed(cfg)
	if err != nil {
		return gwOutcome{}, err
	}
	clients := gwClients(tb)
	dur, warmup := w.virtual, w.virtual/4
	for _, c := range clients {
		c.Start(dur, warmup)
	}
	var shim *processShim
	if variant == httpd.VariantASPGW && (tr != nil || w.capture != nil) {
		shim = &processShim{inner: tb.Gateway.CurrentProcessor(), tr: tr, op: idx, capture: w.capture}
		tb.Gateway.SetProcessor(shim)
	}
	tr.finish("apps.build", "sim_gateway.round", idx, 0, buildStart, tr.now())
	lap()

	runStart := tr.begin("netsim.run", idx)
	events := 0
	// The extra two seconds drain in-flight responses, as RunPoint does.
	for t := gwSlice; t <= dur+2*time.Second; t += gwSlice {
		events += tb.Sim.RunUntil(t)
		lap()
	}
	tr.finish("netsim.run", "sim_gateway.round", idx, 0, runStart, tr.now())

	out := gwOutcome{events: events, gwDrops: tb.Gateway.Stats().DroppedPkts,
		queueDrops: tb.ClientLAN.Dropped() + tb.ServerLAN.Dropped()}
	var lat time.Duration
	for _, c := range clients {
		out.completed += c.Completed
		out.warmed += c.WarmedCompleted
		lat += c.Latency
	}
	if out.completed > 0 {
		out.meanLat = lat / time.Duration(out.completed)
	}
	if tb.GwRT != nil {
		st := tb.GwRT.Stats()
		out.processCalls, out.exceptions = st.Processed+st.Errors, st.Errors
	}
	tr.finish("sim_gateway.round", "", idx, 0, rootStart, tr.now())
	return out, nil
}

// gwClients mirrors RunPoint's two trace-replaying clients. The access
// traces are a fixed data set, as the paper's one replayed server log
// was: the seed varies the arrival process (the simulator's RNG), not
// the documents. With seed-drawn traces the heavy-tailed document sizes
// moved bytes per request, and with it ops_s and alloc_b_op, by 15 %
// from seed to seed; with fixed traces they move by under 1 %.
func gwClients(tb *httpd.Testbed) []*httpd.Client {
	tc := httpd.TraceConfig{Accesses: 20000, Documents: 2000, ZipfS: 1.2, MeanSize: 6000, Seed: 1}
	tr1 := httpd.NewTrace(tc)
	tc.Seed = 2
	tr2 := httpd.NewTrace(tc)
	return []*httpd.Client{
		httpd.NewClient(tb.Clients[0], httpd.VirtualAddr, gwOfferedRPS/2, tr1),
		httpd.NewClient(tb.Clients[1], httpd.VirtualAddr, gwOfferedRPS/2, tr2),
	}
}

// check compares the ASP gateway's simulated outcome with the
// hand-written Go gateway's (httpd.InstallNativeGateway) on the same
// cluster at the same seed: an independent reference. The two agree
// exactly at every seed tried, because the model charges both the same
// per-packet CPU and both balance by connection parity. At seed 1, where
// RunPoint draws the same traces, the repo's own RunPoint must agree
// too, which pins this file's copy of the round to the original.
func (w *simGateway) check() error {
	if w.first == nil {
		return fmt.Errorf("%w: no round ran", errCheck)
	}
	got := *w.first
	ref, err := w.simulate(httpd.VariantNativeGW, -1, nil)
	if err != nil {
		return err
	}
	// The native gateway has no runtime to count calls or exceptions.
	ref.processCalls, ref.exceptions = got.processCalls, got.exceptions
	if got != ref {
		return fmt.Errorf("%w: ASP gateway %+v, native gateway %+v", errCheck, got, ref)
	}
	if w.seed != 1 {
		return nil
	}
	pt, err := httpd.RunPoint(httpd.Config{Variant: httpd.VariantNativeGW, Seed: 1},
		gwOfferedRPS, w.virtual, w.virtual/4)
	if err != nil {
		return err
	}
	window := (w.virtual - w.virtual/4).Seconds()
	if served := float64(got.warmed) / window; served != pt.ServedRPS || got.meanLat != pt.MeanLat {
		return fmt.Errorf("%w: this round served %v req/s at %v, httpd.RunPoint %v at %v",
			errCheck, served, got.meanLat, pt.ServedRPS, pt.MeanLat)
	}
	return nil
}

var _ substrate.Processor = (*processShim)(nil)

// Robustness experiments: the §3.1 audio application and the §3.2
// load-balancing gateway re-run under injected faults (internal/chaos).
// The paper argues ASPs let applications adapt to network conditions;
// these drivers check the claim holds when the network misbehaves —
// loss, duplication, flapping links, partitions, node crashes — and
// that recovery follows heal.
//
// Every cell builds its own netsim Simulator and its own chaos Engine
// with a seed derived from the grid coordinates, so the tables are
// byte-identical across runs and across pool widths, like every
// other deterministic experiment.
//
// Each row carries a "safety" verdict asserting the envelope the
// drivers exist to check: receipt bounded by emission plus injected
// duplicates (no unbounded duplication), and traffic flowing again in
// the tail window after the last heal (service recovers).
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/audio"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/par"
	"planp.dev/planp/internal/planprt"
)

// ---------------------------------------------------------------------------
// chaos-audio: §3.1 under degraded uplink and router crash

// chaosAudioDur is one audio cell's virtual duration; the tail window
// (last 10 s) must carry audio for scenarios that heal.
const chaosAudioDur = 60 * time.Second

// chaosAudioLoad keeps the client segment in figure 7's interesting
// band, so the rows show chaos faults and congestion adaptation at
// once — with their drops counted separately (fault vs queue).
const chaosAudioLoad = 9_900_000

// chaosScenario is one fault schedule for a robustness testbed:
// timeline steps on the testbed's links and nodes, and the instant the
// driver re-downloads the crashed node's ASP (0: no crash, no redeploy).
type chaosScenario struct {
	name       string
	heals      bool // the network is whole again before the tail window
	steps      []chaos.TimelineStep
	redeployAt time.Duration
}

// play compiles the scenario against eng and starts it; steps at
// offset 0 are in effect when it returns.
func (sc chaosScenario) play(eng *chaos.Engine) error {
	compiled, err := eng.Compile(&chaos.Timeline{Name: sc.name, Steps: sc.steps})
	if err != nil {
		return err
	}
	eng.Play(compiled)
	return nil
}

func audioScenarios() []chaosScenario {
	return []chaosScenario{
		{name: "clean", heals: true},
		{name: "loss 10% uplink", steps: []chaos.TimelineStep{{Op: "loss", Link: "source-router", P: 0.10}}},
		{name: "dup 30% uplink", steps: []chaos.TimelineStep{{Op: "dup", Link: "source-router", P: 0.30}}},
		{name: "flap 1s every 10s", heals: true, steps: []chaos.TimelineStep{
			{AtMS: 10_000, Op: "flap", Link: "source-router", DurMS: 1000},
			{AtMS: 20_000, Op: "flap", Link: "source-router", DurMS: 1000},
			{AtMS: 30_000, Op: "flap", Link: "source-router", DurMS: 1000},
			{AtMS: 40_000, Op: "flap", Link: "source-router", DurMS: 1000},
		}},
		{name: "partition 20-30s", heals: true, steps: []chaos.TimelineStep{
			{AtMS: 20_000, Op: "down", Link: "source-router"},
			{AtMS: 30_000, Op: "up", Link: "source-router"},
		}},
		{name: "crash 20s, redeploy 25s", heals: true, redeployAt: 25 * time.Second, steps: []chaos.TimelineStep{
			{AtMS: 20_000, Op: "crash", Node: "router"},
			{AtMS: 25_000, Op: "restart", Node: "router"},
		}},
	}
}

// chaosAudioRow is one (scenario, adaptation) measurement.
type chaosAudioRow struct {
	scenario   string
	mode       audio.Adaptation
	sent       int
	received   int
	lost       int
	silent     int
	segDrops   int64
	faultDrops int64
	dups       int64
	tail       int // packets received in the final 10 s
	safety     string
}

func runChaosAudioCell(sc chaosScenario, mode audio.Adaptation, seed int64) (*chaosAudioRow, error) {
	tb, err := audio.NewTestbed(audio.Options{Adaptation: mode, Seed: seed})
	if err != nil {
		return nil, err
	}
	eng := chaos.New(tb.Sim, &audio.Figure5, tb.Net.Built, seed*7919+13)
	if err := sc.play(eng); err != nil {
		return nil, err
	}
	if sc.redeployAt > 0 {
		// After the restart on the same tick: the router is bare until
		// the ASP is downloaded again.
		tb.Sim.At(sc.redeployAt, func() {
			if tb.RouterRT == nil {
				return // no ASP was installed; restart restores plain forwarding
			}
			rt, err := planprt.Download(tb.Router, asp.AudioRouter, planprt.Config{})
			if err != nil {
				panic(fmt.Sprintf("chaos-audio: redeploy: %v", err))
			}
			tb.RouterRT = rt
		})
	}

	// Background load in the adaptation band, as in figure 7.
	tb.StartPoissonLoad(chaosAudioLoad, chaosAudioDur)
	tb.Source.Start(chaosAudioDur)

	tailStart := 0
	tb.Sim.At(chaosAudioDur-10*time.Second, func() { tailStart = tb.Client.Received() })
	tb.Sim.RunUntil(chaosAudioDur)
	tb.Client.Finish(chaosAudioDur)

	reg := tb.Sim.Metrics()
	row := &chaosAudioRow{
		scenario:   sc.name,
		mode:       mode,
		sent:       tb.Source.Sent,
		received:   tb.Client.Received(),
		lost:       tb.Client.LostPackets,
		silent:     tb.Client.SilentPeriods,
		segDrops:   tb.Segment.Dropped(),
		faultDrops: reg.Counter("chaos.fault_drops").Value(),
		dups:       reg.Counter("chaos.duplicated_pkts").Value(),
		tail:       tb.Client.Received() - tailStart,
	}
	row.safety = "ok"
	if int64(row.received) > int64(row.sent)+row.dups {
		row.safety = fmt.Sprintf("VIOLATED: received %d > sent %d + dups %d", row.received, row.sent, row.dups)
	} else if sc.heals && row.tail == 0 {
		row.safety = "VIOLATED: no audio after heal"
	}
	return row, nil
}

func runChaosAudio(w io.Writer, opts Options) error {
	scenarios := audioScenarios()
	modes := []audio.Adaptation{audio.AdaptNone, audio.AdaptASP}
	rows := make([]*chaosAudioRow, len(scenarios)*len(modes))
	errs := make([]error, len(rows))
	par.Grid2(runtime.GOMAXPROCS(0), len(scenarios), len(modes), func(i, j int) {
		k := i*len(modes) + j
		rows[k], errs[k] = runChaosAudioCell(scenarios[i], modes[j], int64(100+k))
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	tbl := &obs.Table{
		Title:   fmt.Sprintf("Robustness: §3.1 audio under injected faults (%.1f Mb/s background)", float64(chaosAudioLoad)/1e6),
		Headers: []string{"scenario", "adaptation", "sent", "received", "lost", "silent periods", "queue drops", "fault drops", "dup pkts", "tail recv", "safety"},
	}
	for _, r := range rows {
		tbl.AddRow(r.scenario, r.mode.String(), r.sent, r.received, r.lost, r.silent,
			r.segDrops, r.faultDrops, r.dups, r.tail, r.safety)
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "safety envelope: receipt never exceeds emission plus injected duplicates,")
	fmt.Fprintln(w, "and every scenario that heals carries audio again in the final 10 s —")
	fmt.Fprintln(w, "including the router crash, where the ASP is gone until redeployed.")
	fmt.Fprintln(w, "note: fault drops (chaos) and queue drops (congestion) are distinct")
	fmt.Fprintln(w, "counters; adaptation shrinks the latter, never the former.")
	return nil
}

// ---------------------------------------------------------------------------
// chaos-gateway: §3.2 under server-LAN faults and gateway crash

const (
	chaosGwDur     = 20 * time.Second // request issuance window
	chaosGwDrain   = 2 * time.Second
	chaosGwFaultAt = 8 * time.Second
	chaosGwHealAt  = 12 * time.Second
	chaosGwRate    = 100.0 // offered req/s per client
)

func gwScenarios() []chaosScenario {
	fault, heal := chaosGwFaultAt.Milliseconds(), chaosGwHealAt.Milliseconds()
	return []chaosScenario{
		{name: "clean", heals: true},
		{name: "loss 20% server LAN", steps: []chaos.TimelineStep{{Op: "loss", Link: "servers", P: 0.20}}},
		{name: "dup 30% server LAN", steps: []chaos.TimelineStep{{Op: "dup", Link: "servers", P: 0.30}}},
		{name: "partition 8-12s", heals: true, steps: []chaos.TimelineStep{
			{AtMS: fault, Op: "down", Link: "servers"},
			{AtMS: heal, Op: "up", Link: "servers"},
		}},
		{name: "crash 8s, redeploy 12s", heals: true, redeployAt: chaosGwHealAt, steps: []chaos.TimelineStep{
			{AtMS: fault, Op: "crash", Node: "gateway"},
			{AtMS: heal, Op: "restart", Node: "gateway"},
		}},
	}
}

// chaosGwRow is one gateway scenario's measurement.
type chaosGwRow struct {
	scenario    string
	issued      int64
	beforeFault int64 // completions by the fault instant
	during      int64 // completions inside the fault window
	afterHeal   int64 // completions after the heal instant (incl. drain)
	faultDrops  int64
	gwDrops     int64
	safety      string
}

func runChaosGatewayCell(sc chaosScenario, seed int64) (*chaosGwRow, error) {
	tb, err := httpd.NewTestbed(httpd.Config{Variant: httpd.VariantASPGW, Seed: seed})
	if err != nil {
		return nil, err
	}
	eng := chaos.New(tb.Sim, &httpd.Cluster, tb.Net.Built, seed*7919+17)
	if err := sc.play(eng); err != nil {
		return nil, err
	}
	if sc.redeployAt > 0 {
		tb.Sim.At(sc.redeployAt, func() {
			rt, err := planprt.Download(tb.Gateway, asp.HTTPGateway, planprt.Config{Verify: planprt.VerifySingleNode})
			if err != nil {
				panic(fmt.Sprintf("chaos-gateway: redeploy: %v", err))
			}
			tb.GwRT = rt
		})
	}

	tr1 := httpd.NewTrace(httpd.TraceConfig{Accesses: 20000, Documents: 2000, ZipfS: 1.2, MeanSize: 6000, Seed: seed})
	tr2 := httpd.NewTrace(httpd.TraceConfig{Accesses: 20000, Documents: 2000, ZipfS: 1.2, MeanSize: 6000, Seed: seed + 1})
	c1 := httpd.NewClient(tb.Clients[0], httpd.VirtualAddr, chaosGwRate, tr1)
	c2 := httpd.NewClient(tb.Clients[1], httpd.VirtualAddr, chaosGwRate, tr2)
	completed := func() int64 { return c1.Completed + c2.Completed }

	var atFault, atHeal int64
	tb.Sim.At(chaosGwFaultAt, func() { atFault = completed() })
	tb.Sim.At(chaosGwHealAt, func() { atHeal = completed() })
	c1.Start(chaosGwDur, 0)
	c2.Start(chaosGwDur, 0)
	tb.Sim.RunUntil(chaosGwDur + chaosGwDrain)

	row := &chaosGwRow{
		scenario:    sc.name,
		issued:      c1.Issued + c2.Issued,
		beforeFault: atFault,
		during:      atHeal - atFault,
		afterHeal:   completed() - atHeal,
		faultDrops:  tb.Sim.Metrics().Counter("chaos.fault_drops").Value(),
		gwDrops:     tb.Gateway.Stats().DroppedPkts,
	}
	row.safety = "ok"
	if completed() > row.issued {
		row.safety = fmt.Sprintf("VIOLATED: completed %d > issued %d", completed(), row.issued)
	} else if sc.heals && row.afterHeal == 0 {
		row.safety = "VIOLATED: no completions after heal"
	}
	return row, nil
}

func runChaosGateway(w io.Writer, opts Options) error {
	scenarios := gwScenarios()
	rows := make([]*chaosGwRow, len(scenarios))
	errs := make([]error, len(rows))
	par.ForEach(runtime.GOMAXPROCS(0), len(scenarios), func(i int) {
		rows[i], errs[i] = runChaosGatewayCell(scenarios[i], int64(200+i))
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	tbl := &obs.Table{
		Title: fmt.Sprintf("Robustness: §3.2 ASP gateway under injected faults (%.0f req/s offered, fault at %s, heal at %s)",
			2*chaosGwRate, chaosGwFaultAt, chaosGwHealAt),
		Headers: []string{"scenario", "issued", "done@fault", "done in window", "done after heal", "fault drops", "gw drops", "safety"},
	}
	for _, r := range rows {
		tbl.AddRow(r.scenario, r.issued, r.beforeFault, r.during, r.afterHeal, r.faultDrops, r.gwDrops, r.safety)
	}
	fmt.Fprint(w, tbl)
	fmt.Fprintln(w, "safety envelope: duplicated packets never double-count a request")
	fmt.Fprintln(w, "(completions stay bounded by issuance), and requests complete again")
	fmt.Fprintln(w, "after the heal — for the crash row that requires re-downloading the")
	fmt.Fprintln(w, "gateway ASP, since a crash loses all downloaded protocol state.")
	return nil
}

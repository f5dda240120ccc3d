package loadgen

import (
	"testing"
	"time"

	"planp.dev/planp/internal/netsim"
)

func pair(t *testing.T) (*netsim.Simulator, *netsim.Node, *netsim.Node) {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(2))
	a := netsim.NewNode(sim, "gen", netsim.MustAddr("10.0.0.1"))
	b := netsim.NewNode(sim, "sink", netsim.MustAddr("10.0.0.2"))
	l := netsim.Connect(sim, a, b, netsim.LinkConfig{Bandwidth: 100_000_000})
	a.SetDefaultRoute(l.Ifaces()[0])
	b.SetDefaultRoute(l.Ifaces()[1])
	return sim, a, b
}

func TestGeneratorOfferedRate(t *testing.T) {
	sim, a, b := pair(t)
	var bytes int64
	b.BindUDP(40000, func(p *netsim.Packet) { bytes += int64(p.Size()) })
	g := &Generator{Node: a, Dst: b.Addr, DstPort: 40000,
		Steps: []Step{{At: 0, Bps: 8_000_000}}}
	g.Start(sim, time.Second)
	sim.Run()
	rate := float64(bytes) * 8
	if rate < 7_500_000 || rate > 8_500_000 {
		t.Errorf("delivered %.0f b/s, want ~8M", rate)
	}
	pkts, sent := g.Sent()
	if pkts == 0 || sent == 0 {
		t.Error("generator reports nothing sent")
	}
}

func TestGeneratorSteps(t *testing.T) {
	sim, a, b := pair(t)
	perPhase := map[int]int{}
	b.BindUDP(40000, func(p *netsim.Packet) {
		perPhase[int(sim.Now()/time.Second)]++
	})
	g := &Generator{Node: a, Dst: b.Addr, DstPort: 40000,
		Steps: []Step{
			{At: 0, Bps: 1_000_000},
			{At: time.Second, Bps: 0}, // silence
			{At: 2 * time.Second, Bps: 4_000_000},
		}}
	g.Start(sim, 3*time.Second)
	sim.Run()
	if perPhase[1] != 0 {
		t.Errorf("silent phase delivered %d packets", perPhase[1])
	}
	if perPhase[2] < 3*perPhase[0] {
		t.Errorf("phase rates: %v (phase 2 should be ~4x phase 0)", perPhase)
	}
}

func TestGeneratorStop(t *testing.T) {
	sim, a, b := pair(t)
	n := 0
	b.BindUDP(40000, func(*netsim.Packet) { n++ })
	g := &Generator{Node: a, Dst: b.Addr, DstPort: 40000,
		Steps: []Step{{At: 0, Bps: 1_000_000}}}
	g.Start(sim, time.Second)
	sim.At(500*time.Millisecond, g.Stop)
	sim.Run()
	pkts, _ := g.Sent()
	if int64(n) != pkts {
		t.Errorf("delivered %d != sent %d", n, pkts)
	}
	// Should have roughly half the packets of a full run.
	if n == 0 || n > 80 {
		t.Errorf("stop did not halt the generator: %d packets", n)
	}
}

func TestPoissonRate(t *testing.T) {
	sim, _, _ := pair(t)
	arrivals := 0
	p := &Poisson{Rate: 500, Emit: func() { arrivals++ }}
	p.Start(sim, 0, 4*time.Second)
	sim.Run()
	// 500/s over 4s = 2000 expected; Poisson stddev ~45.
	if arrivals < 1800 || arrivals > 2200 {
		t.Errorf("arrivals = %d, want ~2000", arrivals)
	}
}

func TestPoissonStopAndZeroRate(t *testing.T) {
	sim, _, _ := pair(t)
	arrivals := 0
	p := &Poisson{Rate: 1000, Emit: func() { arrivals++ }}
	p.Start(sim, 0, time.Second)
	sim.At(100*time.Millisecond, p.Stop)
	sim.Run()
	if arrivals > 200 {
		t.Errorf("stop ineffective: %d arrivals", arrivals)
	}
	// Zero rate starts nothing.
	q := &Poisson{Rate: 0, Emit: func() { t.Error("emitted at zero rate") }}
	q.Start(sim, 0, time.Second)
	sim.Run()
}

func TestPoissonDeterminism(t *testing.T) {
	counts := [2]int{}
	for i := range counts {
		sim := netsim.New(netsim.WithSeed(77))
		p := &Poisson{Rate: 300, Emit: func() { counts[i]++ }}
		p.Start(sim, 0, 2*time.Second)
		sim.Run()
	}
	if counts[0] != counts[1] {
		t.Errorf("same seed, different arrival counts: %v", counts)
	}
}

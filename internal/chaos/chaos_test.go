package chaos_test

import (
	"testing"
	"time"

	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// bed is a minimal netsim chaos testbed: a — r — b over two links, a
// chaos engine wired to both, a delivery counter at b.
type bed struct {
	sim       *netsim.Simulator
	eng       *chaos.Engine
	a, r, b   *netsim.Node
	delivered *int
}

func mkBed(t *testing.T, seed int64) *bed {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(seed))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	r := netsim.NewNode(sim, "r", netsim.MustAddr("10.0.0.254"))
	b := netsim.NewNode(sim, "b", netsim.MustAddr("10.0.1.1"))
	r.Forwarding = true
	la := netsim.Connect(sim, a, r, netsim.LinkConfig{Bandwidth: 10_000_000})
	lb := netsim.Connect(sim, r, b, netsim.LinkConfig{Bandwidth: 10_000_000})
	a.SetDefaultRoute(la.Ifaces()[0])
	r.AddRoute(a.Addr, la.Ifaces()[1])
	r.AddRoute(b.Addr, lb.Ifaces()[0])
	b.SetDefaultRoute(lb.Ifaces()[1])

	eng := chaos.New(sim, seed+1000)
	eng.Wire("uplink", la.Ifaces()[0], la.Ifaces()[1])
	eng.Wire("downlink", lb.Ifaces()[0], lb.Ifaces()[1])
	eng.Adopt(r)

	delivered := 0
	b.BindUDP(9, func(*netsim.Packet) { delivered++ })
	return &bed{sim: sim, eng: eng, a: a, r: r, b: b, delivered: &delivered}
}

// stream schedules n packets from a to b at the given spacing, starting
// at start.
func (bd *bed) stream(n int, start, spacing time.Duration) {
	for i := 0; i < n; i++ {
		bd.sim.At(start+time.Duration(i)*spacing, func() {
			bd.a.Send(netsim.NewUDP(bd.a.Addr, bd.b.Addr, 1000, 9, []byte("pkt")).Own())
		})
	}
}

func TestLossDropsSomeNotAll(t *testing.T) {
	bd := mkBed(t, 7)
	bd.eng.Apply(chaos.Loss("uplink", 0.3))
	bd.stream(200, 0, time.Millisecond)
	bd.sim.Run()

	drops := bd.sim.Metrics().Counter("chaos.fault_drops").Value()
	if drops == 0 || drops == 200 {
		t.Fatalf("loss 0.3 dropped %d of 200 — want some, not all", drops)
	}
	if got := int64(*bd.delivered) + drops; got != 200 {
		t.Errorf("delivered %d + dropped %d != 200", *bd.delivered, drops)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) (int, int64, int64) {
		bd := mkBed(t, seed)
		bd.eng.Apply(chaos.Loss("uplink", 0.2))
		bd.eng.Apply(chaos.Jitter("downlink", 5*time.Millisecond))
		bd.eng.Apply(chaos.Duplicate("downlink", 0.1))
		bd.stream(500, 0, time.Millisecond)
		bd.sim.Run()
		reg := bd.sim.Metrics()
		return *bd.delivered,
			reg.Counter("chaos.fault_drops").Value(),
			reg.Counter("chaos.duplicated_pkts").Value()
	}
	d1, drop1, dup1 := run(42)
	d2, drop2, dup2 := run(42)
	if d1 != d2 || drop1 != drop2 || dup1 != dup2 {
		t.Errorf("same seed diverged: delivered %d/%d drops %d/%d dups %d/%d",
			d1, d2, drop1, drop2, dup1, dup2)
	}
	d3, drop3, _ := run(43)
	if d1 == d3 && drop1 == drop3 {
		t.Logf("note: seeds 42 and 43 coincided (possible but unlikely)")
	}
}

func TestScenarioPartitionAndHeal(t *testing.T) {
	bd := mkBed(t, 11)
	var faults, heals []string
	bd.sim.Events().Subscribe(obs.Func(func(ev obs.Event) {
		switch ev.Kind {
		case obs.KindFault:
			faults = append(faults, ev.Node+"/"+ev.Detail)
		case obs.KindHeal:
			heals = append(heals, ev.Node+"/"+ev.Detail)
		}
	}))

	// 300ms of traffic; the partition window is [100ms, 200ms).
	bd.stream(300, 0, time.Millisecond)
	bd.eng.Play(chaos.NewScenario().
		At(100*time.Millisecond, chaos.Partition("uplink", "downlink")).
		At(200*time.Millisecond, chaos.Heal()))
	bd.sim.Run()

	// ~100 packets fell in the window (the uplink eats them first).
	drops := bd.sim.Metrics().Counter("chaos.fault_drops").Value()
	if drops < 80 || drops > 120 {
		t.Errorf("partition window dropped %d packets, want ~100", drops)
	}
	if *bd.delivered < 180 || *bd.delivered > 220 {
		t.Errorf("delivered %d, want ~200 (outside the window)", *bd.delivered)
	}
	if len(faults) != 2 {
		t.Errorf("fault events %v, want uplink+downlink link-down", faults)
	}
	if len(heals) != 2 {
		t.Errorf("heal events %v, want uplink+downlink link-up", heals)
	}
}

func TestScenarioEveryFlap(t *testing.T) {
	bd := mkBed(t, 13)
	// Flap the uplink for 10ms every 50ms over 200ms: 4 flaps.
	bd.eng.Play(chaos.NewScenario().
		Every(50*time.Millisecond, 200*time.Millisecond, chaos.Flap("uplink", 10*time.Millisecond)))
	bd.stream(300, 0, time.Millisecond)
	bd.sim.Run()

	reg := bd.sim.Metrics()
	if down := reg.Counter("chaos.link_down").Value(); down != 4 {
		t.Errorf("link_down = %d, want 4 flaps", down)
	}
	if up := reg.Counter("chaos.link_up").Value(); up != 4 {
		t.Errorf("link_up = %d, want 4 recoveries", up)
	}
	// ~40ms of 300ms was dark.
	if *bd.delivered < 220 || *bd.delivered > 290 {
		t.Errorf("delivered %d of 300 under flapping, want ~260", *bd.delivered)
	}
}

func TestCrashRestartOnTimeline(t *testing.T) {
	bd := mkBed(t, 17)
	bd.r.SetProcessor(passProc{})
	bd.stream(300, 0, time.Millisecond)
	bd.eng.Play(chaos.NewScenario().
		At(100*time.Millisecond, chaos.Crash("r")).
		At(200*time.Millisecond, chaos.Restart("r")))
	bd.sim.Run()

	if bd.r.CurrentProcessor() != nil {
		t.Error("crash did not remove the installed processor")
	}
	if *bd.delivered < 180 || *bd.delivered > 220 {
		t.Errorf("delivered %d, want ~200 (router dark for 100ms of 300ms)", *bd.delivered)
	}
	reg := bd.sim.Metrics()
	if reg.Counter("chaos.node_crashes").Value() != 1 || reg.Counter("chaos.node_restarts").Value() != 1 {
		t.Error("crash/restart counters wrong")
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	bd := mkBed(t, 19)
	bd.eng.Apply(chaos.Corrupt("uplink", 1.0))
	var got [][]byte
	bd.b.BindUDP(7, func(p *netsim.Packet) { got = append(got, p.Payload) })
	orig := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	bd.a.Send(netsim.NewUDP(bd.a.Addr, bd.b.Addr, 1, 7, append([]byte(nil), orig...)).Own())
	bd.sim.Run()

	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	diff := 0
	for i := range orig {
		x := got[0][i] ^ orig[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption flipped %d bits, want exactly 1", diff)
	}
	if bd.sim.Metrics().Counter("chaos.corrupted_pkts").Value() != 1 {
		t.Error("corrupted_pkts counter wrong")
	}
}

func TestWireUnknownLinkPanics(t *testing.T) {
	bd := mkBed(t, 23)
	defer func() {
		if recover() == nil {
			t.Error("addressing an unwired link did not panic")
		}
	}()
	bd.eng.Apply(chaos.Down("no-such-link"))
}

// passProc is a pass-through processor standing in for a downloaded ASP
// (its presence/absence is what crash tests assert on).
type passProc struct{}

func (passProc) Process(*substrate.Packet, substrate.Iface) bool { return false }

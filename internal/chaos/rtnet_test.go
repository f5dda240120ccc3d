package chaos_test

import (
	"sync/atomic"
	"testing"
	"time"

	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// TestChaosOnRTNet runs the same primitives against the real-time
// backend: live goroutine-per-node traffic under loss, a hard
// partition, and a heal. Wall clocks make exact counts
// timing-dependent, so assertions are directional — the conformance
// style the rtnet smoke tests use.
func TestChaosOnRTNet(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()

	topo := &substrate.Topology{
		Nodes: []substrate.NodeSpec{
			{Name: "a", Addr: substrate.MustAddr("10.1.0.1")},
			{Name: "r", Addr: substrate.MustAddr("10.1.0.254"), Forwarding: true},
			{Name: "b", Addr: substrate.MustAddr("10.1.1.1")},
		},
		Links: []substrate.LinkSpec{
			{A: "a", B: "r", Bandwidth: 100_000_000},
			{A: "r", B: "b", Bandwidth: 100_000_000},
		},
	}
	built, err := rtnet.Build(nw, topo, false)
	if err != nil {
		t.Fatal(err)
	}
	a, b := built.Node("a"), built.Node("b")

	var delivered atomic.Int64
	b.BindUDP(9, func(*substrate.Packet) { delivered.Add(1) })

	eng := chaos.New(nw, topo, built, 99)
	uplink := lookup(t, eng, "a-r")

	nw.Start()

	send := func(n int) {
		for i := 0; i < n; i++ {
			a.Send(substrate.NewUDP(a.Address(), b.Address(), 1000, 9, []byte("pkt")).Own())
			time.Sleep(200 * time.Microsecond)
		}
		if !nw.Quiesce(5 * time.Second) {
			t.Fatal("network did not quiesce")
		}
	}

	// Phase 1: clean network.
	send(100)
	clean := delivered.Load()
	if clean != 100 {
		t.Fatalf("clean phase delivered %d of 100", clean)
	}

	// Phase 2: 50% loss — some but not all arrive.
	uplink.SetLoss(0.5)
	send(200)
	lossy := delivered.Load() - clean
	if lossy == 0 || lossy == 200 {
		t.Errorf("loss 0.5 delivered %d of 200 — want some, not all", lossy)
	}
	drops := nw.Metrics().Counter("chaos.fault_drops").Value()
	if drops == 0 {
		t.Error("no chaos.fault_drops counted under loss")
	}

	// Phase 3: partition — nothing arrives.
	uplink.Clear()
	uplink.Down()
	before := delivered.Load()
	send(50)
	if got := delivered.Load() - before; got != 0 {
		t.Errorf("%d packets crossed a downed link", got)
	}

	// Phase 4: heal — traffic resumes.
	uplink.Up()
	before = delivered.Load()
	send(50)
	if got := delivered.Load() - before; got != 50 {
		t.Errorf("healed link delivered %d of 50", got)
	}
}

// TestChaosScenarioWallClock plays a short timeline on real timers: a
// 60ms partition inside a 200ms traffic window must open a delivery
// gap and then close it.
func TestChaosScenarioWallClock(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()

	topo := &substrate.Topology{
		Nodes: []substrate.NodeSpec{
			{Name: "a", Addr: substrate.MustAddr("10.2.0.1")},
			{Name: "b", Addr: substrate.MustAddr("10.2.0.2")},
		},
		Links: []substrate.LinkSpec{{A: "a", B: "b", Bandwidth: 100_000_000}},
	}
	built, err := rtnet.Build(nw, topo, false)
	if err != nil {
		t.Fatal(err)
	}
	a, b := built.Node("a"), built.Node("b")

	var delivered atomic.Int64
	b.BindUDP(9, func(*substrate.Packet) { delivered.Add(1) })

	eng := chaos.New(nw, topo, built, 7)
	nw.Start()

	play(t, eng,
		chaos.TimelineStep{AtMS: 50, Op: "down", Link: "a-b"},
		chaos.TimelineStep{AtMS: 110, Op: "up", Link: "a-b"})

	for i := 0; i < 200; i++ {
		a.Send(substrate.NewUDP(a.Address(), b.Address(), 1, 9, []byte("x")).Own())
		time.Sleep(time.Millisecond)
	}
	if !nw.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}

	got := delivered.Load()
	if got == 200 {
		t.Error("partition window dropped nothing")
	}
	if got < 100 {
		t.Errorf("delivered only %d of 200 — the heal never took effect", got)
	}
	if nw.Metrics().Counter("chaos.link_down").Value() != 1 {
		t.Error("link_down counter wrong")
	}
}

// TestClockSkewOnRTNet injects clock skew through the chaos engine and
// asserts the node's Env clock steps by it — and that zero heals.
func TestClockSkewOnRTNet(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()
	topo := &substrate.Topology{Nodes: []substrate.NodeSpec{{Name: "host", Addr: substrate.MustAddr("10.2.0.1")}}}
	built, err := rtnet.Build(nw, topo, false)
	if err != nil {
		t.Fatal(err)
	}
	h, err := chaos.New(nw, topo, built, 7).LookupNode("host")
	if err != nil {
		t.Fatal(err)
	}
	if !h.CanSkew() {
		t.Fatalf("rtnet nodes must support clock skew")
	}

	base := nw.Now()
	h.SetClockSkew(10 * time.Second)
	if d := nw.Now() - base; d < 10*time.Second {
		t.Fatalf("clock advanced only %s after +10s skew", d)
	}
	h.SetClockSkew(0)
	if d := nw.Now() - base; d >= 10*time.Second {
		t.Fatalf("clock still skewed (%s) after heal", d)
	}
	if nw.Metrics().Snapshot()["chaos.clock_skews"] != 2 {
		t.Fatalf("chaos.clock_skews not counted")
	}
}

package netsim

import (
	"testing"
	"time"
)

// TestPerPacketCPUSerializes pins the gateway contention model: a node
// with per-packet CPU cost caps its processing rate at 1/cost.
func TestPerPacketCPUSerializes(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	r := NewNode(sim, "r", MustAddr("10.0.0.254"))
	b := NewNode(sim, "b", MustAddr("10.0.1.1"))
	r.Forwarding = true
	r.PerPacketCPU = time.Millisecond // 1000 pps ceiling
	l1 := Connect(sim, a, r, LinkConfig{Bandwidth: 1_000_000_000, QueueLimit: 10 << 20})
	l2 := Connect(sim, r, b, LinkConfig{Bandwidth: 1_000_000_000, QueueLimit: 10 << 20})
	a.SetDefaultRoute(l1.Ifaces()[0])
	r.AddRoute(b.Addr, l2.Ifaces()[0])
	b.SetDefaultRoute(l2.Ifaces()[1])

	var arrivals []time.Duration
	b.BindUDP(9, func(*Packet) { arrivals = append(arrivals, sim.Now()) })
	// 50 packets arrive at the router nearly simultaneously.
	for i := 0; i < 50; i++ {
		a.Send(NewUDP(a.Addr, b.Addr, 1, 9, make([]byte, 100)))
	}
	sim.Run()
	if len(arrivals) != 50 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	// Deliveries pace out at ~1ms intervals behind the router CPU.
	span := arrivals[len(arrivals)-1] - arrivals[0]
	if span < 45*time.Millisecond {
		t.Errorf("50 packets crossed a 1ms/packet CPU in %v; want >= ~49ms", span)
	}
	// Zero-CPU nodes process synchronously (no pacing).
	r.PerPacketCPU = 0
	arrivals = arrivals[:0]
	for i := 0; i < 10; i++ {
		a.Send(NewUDP(a.Addr, b.Addr, 1, 9, make([]byte, 100)))
	}
	sim.Run()
	span = arrivals[len(arrivals)-1] - arrivals[0]
	if span > 10*time.Millisecond {
		t.Errorf("zero-CPU span %v", span)
	}
}

func TestNodeLookups(t *testing.T) {
	sim := New(WithSeed(1))
	n := NewNode(sim, "host", MustAddr("10.0.0.1"))
	if sim.Node(n.Addr) != n || sim.NodeByName("host") != n {
		t.Error("lookups failed")
	}
	if sim.Node(MustAddr("9.9.9.9")) != nil || sim.NodeByName("ghost") != nil {
		t.Error("missing lookups should be nil")
	}
	// Duplicate registration panics (programming error).
	for _, dup := range []func(){
		func() { NewNode(sim, "other", n.Addr) },
		func() { NewNode(sim, "host", MustAddr("10.0.0.2")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("duplicate node registration should panic")
				}
			}()
			dup()
		}()
	}
}

func TestSendToSelfDeliversLocally(t *testing.T) {
	sim := New(WithSeed(1))
	n := NewNode(sim, "n", MustAddr("10.0.0.1"))
	got := 0
	n.BindUDP(9, func(*Packet) { got++ })
	n.Send(NewUDP(n.Addr, n.Addr, 1, 9, nil))
	sim.Run()
	if got != 1 {
		t.Errorf("self-send deliveries = %d", got)
	}
}

func TestUnroutableCountsDrop(t *testing.T) {
	sim := New(WithSeed(1))
	n := NewNode(sim, "n", MustAddr("10.0.0.1"))
	n.Send(NewUDP(n.Addr, MustAddr("10.9.9.9"), 1, 9, nil))
	sim.Run()
	if n.Stats().DroppedPkts != 1 {
		t.Errorf("drops = %d", n.Stats().DroppedPkts)
	}
}

func TestBindRawReceivesUnboundPorts(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	l := Connect(sim, a, b, LinkConfig{Bandwidth: 10_000_000})
	a.SetDefaultRoute(l.Ifaces()[0])
	bound, raw := 0, 0
	b.BindUDP(9, func(*Packet) { bound++ })
	b.BindRaw(func(*Packet) { raw++ })
	a.Send(NewUDP(a.Addr, b.Addr, 1, 9, nil))  // bound port
	a.Send(NewUDP(a.Addr, b.Addr, 1, 99, nil)) // unbound port
	sim.Run()
	if bound != 1 || raw != 1 {
		t.Errorf("bound=%d raw=%d, want 1/1 (raw only catches unbound)", bound, raw)
	}
}

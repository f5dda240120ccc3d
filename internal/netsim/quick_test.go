package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

// TestPacketConservation property-checks the simulator's accounting: on
// a two-link chain, every packet offered is either delivered, dropped at
// a queue, or dropped by the router — nothing vanishes, nothing
// duplicates.
func TestPacketConservation(t *testing.T) {
	f := func(seed int64, count uint8, sizeSel uint8, bwSel uint8) bool {
		n := int(count%60) + 1
		size := 100 + int(sizeSel)*7
		bw := int64(500_000) * (1 + int64(bwSel%8))
		sim := New(WithSeed(seed))
		a := NewNode(sim, "a", MustAddr("10.0.0.1"))
		r := NewNode(sim, "r", MustAddr("10.0.0.254"))
		b := NewNode(sim, "b", MustAddr("10.0.1.1"))
		r.Forwarding = true
		l1 := Connect(sim, a, r, LinkConfig{Bandwidth: 1_000_000_000})
		l2 := Connect(sim, r, b, LinkConfig{Bandwidth: bw, QueueLimit: 8000})
		a.SetDefaultRoute(l1.Ifaces()[0])
		r.AddRoute(b.Addr, l2.Ifaces()[0])
		b.SetDefaultRoute(l2.Ifaces()[1])

		delivered := 0
		b.BindUDP(9, func(*Packet) { delivered++ })
		for i := 0; i < n; i++ {
			a.Send(NewUDP(a.Addr, b.Addr, 1, 9, make([]byte, size)))
		}
		sim.Run()
		queueDrops := l2.Dropped(l2.Ifaces()[0]) + l1.Dropped(l1.Ifaces()[0])
		total := int64(delivered) + queueDrops + r.Stats().DroppedPkts
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSegmentConservation mirrors the invariant on a shared segment:
// frames reach exactly the interested hosts.
func TestSegmentConservation(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		n := int(count%40) + 1
		sim := New(WithSeed(seed))
		a := NewNode(sim, "a", MustAddr("10.0.0.1"))
		b := NewNode(sim, "b", MustAddr("10.0.0.2"))
		c := NewNode(sim, "c", MustAddr("10.0.0.3"))
		seg := NewSegment(sim, "lan", LinkConfig{Bandwidth: 100_000_000})
		ia := seg.Attach(a)
		seg.Attach(b)
		seg.Attach(c)
		a.SetDefaultRoute(ia)
		gotB, gotC := 0, 0
		b.BindUDP(9, func(*Packet) { gotB++ })
		c.BindUDP(9, func(*Packet) { gotC++ })
		for i := 0; i < n; i++ {
			a.Send(NewUDP(a.Addr, b.Addr, 1, 9, make([]byte, 200)))
		}
		sim.Run()
		// Unicast to b: c (not promiscuous) sees nothing.
		return gotB+int(seg.Dropped()) == n && gotC == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRateMeterNeverExceedsOffered property-checks the meter: measured
// throughput never exceeds what was actually added.
func TestRateMeterNeverExceedsOffered(t *testing.T) {
	f := func(adds []uint16) bool {
		if len(adds) > 200 {
			adds = adds[:200]
		}
		m := NewRateMeter(100 * time.Millisecond)
		var total int64
		at := time.Duration(0)
		for _, a := range adds {
			n := int64(a % 2000)
			m.Add(at, n)
			total += n
			at += time.Millisecond
		}
		rate := m.BitsPerSecond(at)
		if rate < 0 {
			return false
		}
		// Upper bound: everything added, compressed into the meter's
		// effective 90ms window.
		return rate <= total*8*int64(time.Second)/int64(90*time.Millisecond)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSimulatorDeterminism: identical seeds and workloads produce
// identical delivery timelines.
func TestSimulatorDeterminism(t *testing.T) {
	runOnce := func() []time.Duration {
		sim := New(WithSeed(99))
		a := NewNode(sim, "a", MustAddr("10.0.0.1"))
		b := NewNode(sim, "b", MustAddr("10.0.0.2"))
		l := Connect(sim, a, b, LinkConfig{Bandwidth: 2_000_000})
		a.SetDefaultRoute(l.Ifaces()[0])
		var times []time.Duration
		b.BindUDP(9, func(*Packet) { times = append(times, sim.Now()) })
		for i := 0; i < 30; i++ {
			size := 100 + int(sim.Int63n(900))
			sim.At(time.Duration(i)*3*time.Millisecond, func() {
				a.Send(NewUDP(a.Addr, b.Addr, 1, 9, make([]byte, size)))
			})
		}
		sim.Run()
		return times
	}
	t1, t2 := runOnce(), runOnce()
	if len(t1) != len(t2) {
		t.Fatalf("delivery counts differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("timeline diverges at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

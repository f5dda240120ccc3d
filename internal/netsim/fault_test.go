package netsim

import (
	"testing"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// TestLinkFaultDropsDistinctFromQueueDrops is the regression test for
// drop accounting: chaos-injected drops must land in a separate counter
// from queue-overflow drops, with distinct event details — otherwise a
// robustness experiment cannot tell "the network was cut" from "the
// queue was full".
func TestLinkFaultDropsDistinctFromQueueDrops(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	// A thin link with a tiny queue: a burst overflows it.
	l := Connect(sim, a, b, LinkConfig{Bandwidth: 1_000_000, QueueLimit: 4 << 10})
	a.SetDefaultRoute(l.Ifaces()[0])
	b.SetDefaultRoute(l.Ifaces()[1])

	var sink obs.CountingSink
	details := map[string]int{}
	sim.Events().Subscribe(&sink)
	sim.Events().Subscribe(obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.KindDrop {
			details[ev.Detail]++
		}
	}))

	// Phase 1: no fault installed — a burst forces queue drops only.
	payload := make([]byte, 1000)
	for i := 0; i < 100; i++ {
		a.Send(NewUDP(a.Addr, b.Addr, 1, 2, payload).Own())
	}
	sim.Run()
	out := l.Ifaces()[0]
	queueDrops := l.Dropped(out)
	if queueDrops == 0 {
		t.Fatal("burst did not overflow the queue — the test lost its premise")
	}
	if got := l.FaultDropped(out); got != 0 {
		t.Fatalf("FaultDropped = %d with no fault installed", got)
	}

	// Phase 2: a fault layer that drops everything — fault drops only,
	// queue drops unchanged.
	out.SetFault(func(*substrate.Packet) substrate.FaultAction {
		return substrate.FaultAction{Drop: true}
	})
	for i := 0; i < 10; i++ {
		a.Send(NewUDP(a.Addr, b.Addr, 1, 2, payload).Own())
	}
	sim.Run()
	if got := l.FaultDropped(out); got != 10 {
		t.Errorf("FaultDropped = %d, want 10", got)
	}
	if got := l.Dropped(out); got != queueDrops {
		t.Errorf("queue Dropped moved from %d to %d under fault drops", queueDrops, got)
	}
	if details["fault"] != 10 {
		t.Errorf(`%d KindDrop events with Detail "fault", want 10`, details["fault"])
	}
	if int64(details["queue"]) != queueDrops {
		t.Errorf(`%d KindDrop events with Detail "queue", want %d`, details["queue"], queueDrops)
	}
}

// TestSegmentFaultDropsDistinct mirrors the regression on the shared
// medium.
func TestSegmentFaultDropsDistinct(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	seg := NewSegment(sim, "lan", LinkConfig{Bandwidth: 10_000_000})
	ia := seg.Attach(a)
	seg.Attach(b)
	a.SetDefaultRoute(ia)

	got := 0
	b.BindUDP(2, func(*Packet) { got++ })

	ia.SetFault(func(*substrate.Packet) substrate.FaultAction {
		return substrate.FaultAction{Drop: true}
	})
	a.Send(NewUDP(a.Addr, b.Addr, 1, 2, []byte("x")).Own())
	sim.Run()
	if got != 0 {
		t.Error("fault-dropped frame was delivered")
	}
	if seg.FaultDropped() != 1 || seg.Dropped() != 0 {
		t.Errorf("FaultDropped = %d, Dropped = %d; want 1, 0", seg.FaultDropped(), seg.Dropped())
	}

	ia.SetFault(nil)
	a.Send(NewUDP(a.Addr, b.Addr, 1, 2, []byte("x")).Own())
	sim.Run()
	if got != 1 {
		t.Errorf("delivered %d after clearing fault, want 1", got)
	}
}

// TestFaultDelayAndDuplicate covers the remaining verdict fields on the
// link medium: injected latency shifts arrival, duplication multiplies
// delivery, corruption flips exactly one payload bit on a private copy.
func TestFaultDelayAndDuplicate(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	l := Connect(sim, a, b, LinkConfig{Bandwidth: 10_000_000})
	a.SetDefaultRoute(l.Ifaces()[0])
	b.SetDefaultRoute(l.Ifaces()[1])

	var arrivals []time.Duration
	var payloads [][]byte
	b.BindUDP(2, func(p *Packet) {
		arrivals = append(arrivals, sim.Now())
		payloads = append(payloads, p.Payload)
	})

	// Baseline latency.
	a.Send(NewUDP(a.Addr, b.Addr, 1, 2, []byte{0x00}).Own())
	sim.Run()
	base := arrivals[0]

	// +50ms injected delay, one duplicate, one corrupted bit.
	l.Ifaces()[0].SetFault(func(*substrate.Packet) substrate.FaultAction {
		return substrate.FaultAction{Delay: 50 * time.Millisecond, Dup: 1, Corrupt: true, CorruptBit: 3}
	})
	orig := []byte{0x00}
	a.Send(NewUDP(a.Addr, b.Addr, 1, 2, orig).Own())
	sim.Run()

	if len(arrivals) != 3 {
		t.Fatalf("delivered %d packets total, want 3 (baseline + original + duplicate)", len(arrivals))
	}
	for _, at := range arrivals[1:] {
		if d := at - base; d < 50*time.Millisecond {
			t.Errorf("faulted packet arrived %v after baseline, want >= 50ms", d)
		}
	}
	for _, p := range payloads[1:] {
		if p[0] != 0x08 {
			t.Errorf("corrupted payload byte %#02x, want %#02x (bit 3 flipped)", p[0], 0x08)
		}
	}
	if orig[0] != 0x00 {
		t.Error("corruption wrote through the sender's payload — must deep-copy")
	}
}

// TestNodeCrashRestart: a crashed node blackholes traffic and loses its
// processor; a restarted node forwards again, bare.
func TestNodeCrashRestart(t *testing.T) {
	sim, a, r, b := mk(t)
	delivered := 0
	b.BindUDP(9, func(*Packet) { delivered++ })

	send := func() {
		a.Send(NewUDP(a.Addr, b.Addr, 1000, 9, []byte("x")).Own())
		sim.Run()
	}

	r.SetProcessor(procFunc(func(*Packet, substrate.Iface) bool { return false })) // passthrough
	send()
	if delivered != 1 {
		t.Fatalf("delivered %d before crash, want 1", delivered)
	}

	r.Crash()
	if r.CurrentProcessor() != nil {
		t.Error("crash kept the installed processor — ASP state must be lost")
	}
	send()
	if delivered != 1 {
		t.Fatalf("delivered %d through a crashed router, want still 1", delivered)
	}
	drops := r.Stats().DroppedPkts
	if drops == 0 {
		t.Error("crashed router counted no drops")
	}

	r.Restart()
	send()
	if delivered != 2 {
		t.Fatalf("delivered %d after restart, want 2", delivered)
	}
}

package netsim

import (
	"strings"
	"testing"
	"time"

	"planp.dev/planp/internal/obs"
)

// runObserved drives the mk topology with a mixed workload under a
// given seed and returns the full event trace plus the metric render.
func runObserved(t *testing.T, seed int64) (events []string, metrics string) {
	t.Helper()
	sim := New(WithSeed(seed))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	r := NewNode(sim, "r", MustAddr("10.0.0.254"))
	b := NewNode(sim, "b", MustAddr("10.0.1.1"))
	r.Forwarding = true
	la := Connect(sim, a, r, LinkConfig{Bandwidth: 1_000_000, QueueLimit: 1024})
	lb := Connect(sim, r, b, LinkConfig{Bandwidth: 1_000_000, QueueLimit: 1024})
	a.SetDefaultRoute(la.a)
	r.AddRoute(a.Addr, la.b)
	r.AddRoute(b.Addr, lb.a)
	b.SetDefaultRoute(lb.b)
	b.BindUDP(9, func(*Packet) {})

	sim.Events().Subscribe(obs.Func(func(ev obs.Event) {
		events = append(events, ev.String())
	}))

	// Burst enough packets to overflow the 4-deep queue (drops), plus
	// one packet to an unbound port (no-binding) and one unroutable
	// destination (no-route), so several event kinds appear.
	for i := 0; i < 8; i++ {
		a.Send(NewUDP(a.Addr, b.Addr, 1000, 9, make([]byte, 512)))
	}
	// After the burst drains: one packet to an unbound port and one to
	// an unroutable destination, so the node-level drop reasons appear
	// too (not just queue overflow).
	sim.At(100*time.Millisecond, func() {
		a.Send(NewUDP(a.Addr, b.Addr, 1000, 7, nil))
		a.Send(NewUDP(a.Addr, MustAddr("10.9.9.9"), 1, 1, nil))
	})
	sim.Run()
	return events, sim.Metrics().Render()
}

func TestEventStreamDeterministicUnderFixedSeed(t *testing.T) {
	ev1, m1 := runObserved(t, 42)
	ev2, m2 := runObserved(t, 42)
	if len(ev1) == 0 {
		t.Fatal("no events published")
	}
	if strings.Join(ev1, "\n") != strings.Join(ev2, "\n") {
		t.Error("two runs with the same seed produced different event streams")
	}
	if m1 != m2 {
		t.Errorf("metric renders differ:\n%s\n--\n%s", m1, m2)
	}
	// The trace must contain every substrate-level kind the workload
	// provokes.
	joined := strings.Join(ev1, "\n")
	for _, kind := range []string{"enqueue", "forward", "deliver", "drop"} {
		if !strings.Contains(joined, kind) {
			t.Errorf("trace missing %q events:\n%s", kind, joined)
		}
	}
	for _, reason := range []string{"queue", "no-binding"} {
		if !strings.Contains(joined, reason) {
			t.Errorf("trace missing drop reason %q", reason)
		}
	}
}

func TestEventsMatchStatsSnapshot(t *testing.T) {
	sim, a, r, b := mk(t)
	var counts obs.CountingSink
	sim.Events().Subscribe(&counts)
	b.BindUDP(9, func(*Packet) {})
	for i := 0; i < 5; i++ {
		a.Send(NewUDP(a.Addr, b.Addr, 1000, 9, []byte("x")))
	}
	sim.Run()
	if got := counts.Count(obs.KindForward); got != int64(r.Stats().ForwardedPkts) {
		t.Errorf("forward events %d != router forwarded %d", got, r.Stats().ForwardedPkts)
	}
	if got := counts.Count(obs.KindDeliver); got != int64(b.Stats().DeliveredPkts) {
		t.Errorf("deliver events %d != delivered %d", got, b.Stats().DeliveredPkts)
	}
	if counts.Count(obs.KindDrop) != 0 {
		t.Errorf("unexpected drops: %d", counts.Count(obs.KindDrop))
	}
}

func TestNodeStatsFromRegistry(t *testing.T) {
	sim, a, _, b := mk(t)
	b.BindUDP(9, func(*Packet) {})
	a.Send(NewUDP(a.Addr, b.Addr, 1000, 9, []byte("abc")))
	sim.Run()
	// The Stats() snapshot and the registry must agree: they are the
	// same instruments.
	snap := sim.Metrics().Snapshot()
	if got := snap["node.b.delivered_pkts"]; got != int64(b.Stats().DeliveredPkts) {
		t.Errorf("registry delivered %d, snapshot %d", got, b.Stats().DeliveredPkts)
	}
	if got := snap["node.a.sent_pkts"]; got != int64(a.Stats().SentPkts) {
		t.Errorf("registry sent %d, snapshot %d", got, a.Stats().SentPkts)
	}
	if a.Stats().SentBytes == 0 {
		t.Error("sent bytes not counted")
	}
}

// TestRegistryExactMidRun: a node counts straight into the registry, so
// an event in the middle of a run reads there what Stats reads — the
// registry is the single source Env.Metrics promises, at every instant.
func TestRegistryExactMidRun(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	l := Connect(sim, a, b, LinkConfig{Bandwidth: 10e6})
	a.SetDefaultRoute(l.Ifaces()[0])
	b.BindUDP(9, func(*Packet) {})
	for i := 0; i < 5; i++ {
		sim.At(time.Duration(i)*10*time.Millisecond, func() {
			a.Send(NewUDP(a.Addr, b.Addr, 1000, 9, make([]byte, 100)).Own())
		})
	}
	counter, snap, stats := int64(-1), int64(-1), int64(-1)
	sim.At(100*time.Millisecond, func() {
		counter = sim.Metrics().Counter("node.b.received_pkts").Value()
		snap = sim.Metrics().Snapshot()["node.b.received_pkts"]
		stats = b.Stats().ReceivedPkts
	})
	sim.RunUntil(time.Second)
	if stats != 5 || counter != stats || snap != stats {
		t.Fatalf("at 100 ms: Stats %d, registry counter %d, snapshot %d; want 5 each", stats, counter, snap)
	}
}

func TestRunMaxBudget(t *testing.T) {
	sim := New(WithSeed(1))
	fired := 0
	for i := 0; i < 10; i++ {
		sim.At(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	if n := sim.RunMax(3); n != 3 || fired != 3 {
		t.Fatalf("RunMax(3) ran %d events (fired %d)", n, fired)
	}
	if sim.Now() != 2*time.Millisecond {
		t.Errorf("clock advanced to %v, want 2ms (no deadline jump)", sim.Now())
	}
	if n := sim.RunMax(0); n != 7 || fired != 10 {
		t.Errorf("RunMax(0) drain ran %d (fired %d)", n, fired)
	}
}

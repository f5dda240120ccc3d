package netsim

import (
	"testing"
	"time"

	"planp.dev/planp/internal/substrate"
)

func mk(t *testing.T) (*Simulator, *Node, *Node, *Node) {
	t.Helper()
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	r := NewNode(sim, "r", MustAddr("10.0.0.254"))
	b := NewNode(sim, "b", MustAddr("10.0.1.1"))
	r.Forwarding = true
	la := Connect(sim, a, r, LinkConfig{Bandwidth: 10_000_000})
	lb := Connect(sim, r, b, LinkConfig{Bandwidth: 10_000_000})
	a.SetDefaultRoute(la.a)
	r.AddRoute(a.Addr, la.b)
	r.AddRoute(b.Addr, lb.a)
	b.SetDefaultRoute(lb.b)
	return sim, a, r, b
}

func TestEventOrdering(t *testing.T) {
	sim := New(WithSeed(1))
	var order []int
	sim.At(3*time.Millisecond, func() { order = append(order, 3) })
	sim.At(1*time.Millisecond, func() { order = append(order, 1) })
	sim.At(2*time.Millisecond, func() { order = append(order, 2) })
	sim.At(1*time.Millisecond, func() { order = append(order, 11) }) // FIFO tie
	sim.Run()
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if sim.Now() != 3*time.Millisecond {
		t.Errorf("now = %v, want 3ms", sim.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	sim := New(WithSeed(1))
	fired := false
	sim.At(5*time.Millisecond, func() { fired = true })
	sim.RunUntil(2 * time.Millisecond)
	if fired {
		t.Error("event fired before deadline")
	}
	if sim.Now() != 2*time.Millisecond {
		t.Errorf("now = %v, want 2ms", sim.Now())
	}
	sim.RunUntil(10 * time.Millisecond)
	if !fired {
		t.Error("event did not fire")
	}
}

func TestUnicastDelivery(t *testing.T) {
	sim, a, _, b := mk(t)
	var got []*Packet
	b.BindUDP(9, func(p *Packet) { got = append(got, p) })
	a.Send(NewUDP(a.Addr, b.Addr, 1000, 9, []byte("hello")))
	sim.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if string(got[0].Payload) != "hello" {
		t.Errorf("payload %q", got[0].Payload)
	}
	if got[0].IP.TTL != 63 {
		t.Errorf("TTL = %d, want 63 (one hop through router)", got[0].IP.TTL)
	}
}

func TestDeliveryLatencyMatchesLinkModel(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	l := Connect(sim, a, b, LinkConfig{Bandwidth: 8_000_000, Delay: 2 * time.Millisecond})
	a.SetDefaultRoute(l.a)
	var at time.Duration
	b.BindUDP(9, func(*Packet) { at = sim.Now() })
	pkt := NewUDP(a.Addr, b.Addr, 1, 9, make([]byte, 972)) // 1000B on wire
	a.Send(pkt)
	sim.Run()
	// 1000 bytes at 8 Mb/s = 1ms serialization + 2ms propagation.
	want := 3 * time.Millisecond
	if at != want {
		t.Errorf("arrival at %v, want %v (size=%d)", at, want, pkt.Size())
	}
}

func TestTTLExpiry(t *testing.T) {
	sim, a, r, b := mk(t)
	delivered := false
	b.BindUDP(9, func(*Packet) { delivered = true })
	pkt := NewUDP(a.Addr, b.Addr, 1, 9, nil)
	pkt.IP.TTL = 1
	a.Send(pkt)
	sim.Run()
	if delivered {
		t.Error("TTL=1 packet crossed the router")
	}
	if r.Stats().DroppedPkts != 1 {
		t.Errorf("router drops = %d, want 1", r.Stats().DroppedPkts)
	}
}

func TestQueueOverflowDropsTail(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	l := Connect(sim, a, b, LinkConfig{Bandwidth: 1_000_000, QueueLimit: 2000})
	a.SetDefaultRoute(l.a)
	n := 0
	b.BindUDP(9, func(*Packet) { n++ })
	for i := 0; i < 50; i++ {
		a.Send(NewUDP(a.Addr, b.Addr, 1, 9, make([]byte, 1000)))
	}
	sim.Run()
	if l.Dropped(l.a) == 0 {
		t.Error("expected tail drops on a 2KB queue")
	}
	if n == 0 || n == 50 {
		t.Errorf("delivered %d/50; expected partial delivery", n)
	}
	if int64(n)+l.Dropped(l.a) != 50 {
		t.Errorf("delivered %d + dropped %d != 50", n, l.Dropped(l.a))
	}
}

func TestMulticastTreeDelivery(t *testing.T) {
	sim := New(WithSeed(1))
	src := NewNode(sim, "src", MustAddr("10.0.0.1"))
	r := NewNode(sim, "r", MustAddr("10.0.0.254"))
	r.Forwarding = true
	c1 := NewNode(sim, "c1", MustAddr("10.0.1.1"))
	c2 := NewNode(sim, "c2", MustAddr("10.0.1.2"))
	up := Connect(sim, src, r, LinkConfig{Bandwidth: 10_000_000})
	seg := NewSegment(sim, "lan", LinkConfig{Bandwidth: 10_000_000})
	rseg := seg.Attach(r)
	seg.Attach(c1)
	seg.Attach(c2)
	src.SetDefaultRoute(up.a)

	group := MustAddr("224.1.1.1")
	r.AddMulticastRoute(group, rseg)
	c1.JoinGroup(group)
	// c2 does not join.

	got1, got2 := 0, 0
	c1.BindUDP(5000, func(*Packet) { got1++ })
	c2.BindUDP(5000, func(*Packet) { got2++ })
	for i := 0; i < 3; i++ {
		src.Send(NewUDP(src.Addr, group, 1, 5000, []byte("audio")))
	}
	sim.Run()
	if got1 != 3 {
		t.Errorf("joined client received %d, want 3", got1)
	}
	if got2 != 0 {
		t.Errorf("non-member received %d, want 0", got2)
	}
}

func TestSegmentPromiscuousCapture(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	b := NewNode(sim, "b", MustAddr("10.0.0.2"))
	c := NewNode(sim, "c", MustAddr("10.0.0.3"))
	seg := NewSegment(sim, "lan", LinkConfig{Bandwidth: 10_000_000})
	ia := seg.Attach(a)
	seg.Attach(b)
	ic := seg.Attach(c)
	a.SetDefaultRoute(ia)

	seen := 0
	c.Tap(func(*Packet) { seen++ })
	bGot := 0
	b.BindUDP(9, func(*Packet) { bGot++ })

	a.Send(NewUDP(a.Addr, b.Addr, 1, 9, []byte("x")))
	sim.Run()
	if bGot != 1 {
		t.Fatalf("b received %d, want 1", bGot)
	}
	if seen != 0 {
		t.Fatalf("non-promiscuous c saw %d frames, want 0", seen)
	}

	ic.Promisc = true
	a.Send(NewUDP(a.Addr, b.Addr, 1, 9, []byte("y")))
	sim.Run()
	if seen != 1 {
		t.Errorf("promiscuous c saw %d frames, want 1", seen)
	}
}

func TestRateMeterWindow(t *testing.T) {
	m := NewRateMeter(100 * time.Millisecond)
	// 10 KB over 100ms = 800 kb/s.
	for i := 0; i < 10; i++ {
		m.Add(time.Duration(i)*10*time.Millisecond, 1000)
	}
	got := m.BitsPerSecond(100 * time.Millisecond)
	if got < 700_000 || got > 900_000 {
		t.Errorf("rate = %d b/s, want ~800k", got)
	}
	// After a long idle period the window drains.
	if got := m.BitsPerSecond(2 * time.Second); got != 0 {
		t.Errorf("idle rate = %d, want 0", got)
	}
}

func TestRateMeterUtilization(t *testing.T) {
	m := NewRateMeter(100 * time.Millisecond)
	// The meter measures over the window's completed buckets
	// (window-bucket = 90 ms). Place 1250 B in each of the 9 buckets
	// covering 0-90 ms and query inside the 10th: 90 kb / 90 ms = 1 Mb/s.
	for i := 0; i < 9; i++ {
		m.Add(time.Duration(i)*10*time.Millisecond, 1250)
	}
	u := m.Utilization(95*time.Millisecond, 10_000_000)
	if u != 10 {
		t.Errorf("utilization = %d%%, want 10%%", u)
	}
	if u := m.Utilization(95*time.Millisecond, 0); u != 0 {
		t.Errorf("zero-capacity utilization = %d, want 0", u)
	}
	// Utilization clamps at 100%.
	m2 := NewRateMeter(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		m2.Add(time.Duration(i)*10*time.Millisecond, 1_000_000)
	}
	if u := m2.Utilization(95*time.Millisecond, 10_000_000); u != 100 {
		t.Errorf("overloaded utilization = %d, want clamped 100", u)
	}
}

func TestProcessorIntercepts(t *testing.T) {
	sim, a, r, b := mk(t)
	var seen []*Packet
	r.SetProcessor(procFunc(func(pkt *Packet, in substrate.Iface) bool {
		seen = append(seen, pkt)
		return pkt.UDP != nil && pkt.UDP.DstPort == 7 // swallow port 7
	}))
	got := 0
	b.BindUDP(9, func(*Packet) { got++ })
	b.BindUDP(7, func(*Packet) { got += 100 })
	a.Send(NewUDP(a.Addr, b.Addr, 1, 9, nil))
	a.Send(NewUDP(a.Addr, b.Addr, 1, 7, nil))
	sim.Run()
	if len(seen) != 2 {
		t.Errorf("processor saw %d packets, want 2", len(seen))
	}
	if got != 1 {
		t.Errorf("deliveries = %d, want only the port-9 packet (1)", got)
	}
}

type procFunc func(pkt *Packet, in substrate.Iface) bool

func (f procFunc) Process(pkt *Packet, in substrate.Iface) bool { return f(pkt, in) }

func TestSplitHorizonPreventsReflection(t *testing.T) {
	// A router attached to one segment must not bounce a frame back out
	// the interface it came from.
	sim := New(WithSeed(1))
	h := NewNode(sim, "h", MustAddr("10.0.0.1"))
	r := NewNode(sim, "r", MustAddr("10.0.0.254"))
	r.Forwarding = true
	seg := NewSegment(sim, "lan", LinkConfig{Bandwidth: 10_000_000})
	ih := seg.Attach(h)
	ir := seg.Attach(r)
	h.SetDefaultRoute(ih)
	r.SetDefaultRoute(ir)
	// Frame for an unknown host: router would forward out its only
	// interface, which is where it came from.
	h.Send(NewUDP(h.Addr, MustAddr("10.9.9.9"), 1, 9, nil))
	sim.Run()
	if r.Stats().ForwardedPkts != 0 {
		t.Errorf("router reflected %d packets back onto the segment", r.Stats().ForwardedPkts)
	}
}

func TestAddrParsing(t *testing.T) {
	a, err := substrate.ParseAddr("131.254.60.81")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "131.254.60.81" {
		t.Errorf("round trip = %s", a)
	}
	for _, bad := range []string{"1.2.3", "256.1.1.1", "x.y.z.w", ""} {
		if _, err := substrate.ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) succeeded", bad)
		}
	}
	if !MustAddr("224.0.0.5").IsMulticast() {
		t.Error("224.0.0.5 should be multicast")
	}
	if MustAddr("10.0.0.1").IsMulticast() {
		t.Error("10.0.0.1 should not be multicast")
	}
}

func TestPacketCloneCopyOnWrite(t *testing.T) {
	p := substrate.NewTCP(MustAddr("1.1.1.1"), MustAddr("2.2.2.2"), 10, 80, 42, substrate.FlagSyn, []byte("abc"))
	q := p.Clone()
	q.IP.Dst = MustAddr("3.3.3.3")
	if p.IP.Dst != MustAddr("2.2.2.2") {
		t.Error("Clone shares the IP header with the original")
	}
	if q.TCP != p.TCP {
		t.Error("Clone should share the transport header struct")
	}
	if len(q.Payload) != len(p.Payload) || (len(q.Payload) > 0 && &q.Payload[0] != &p.Payload[0]) {
		t.Error("Clone should share the payload bytes")
	}
	if !q.Owned() {
		t.Error("Clone result should be exclusively owned by the caller")
	}
}

func TestPacketCloneMutIsDeep(t *testing.T) {
	p := substrate.NewTCP(MustAddr("1.1.1.1"), MustAddr("2.2.2.2"), 10, 80, 42, substrate.FlagSyn, []byte("abc"))
	q := p.CloneMut()
	q.IP.Dst = MustAddr("3.3.3.3")
	q.TCP.DstPort = 8080
	q.Payload[0] = 'X'
	if p.IP.Dst != MustAddr("2.2.2.2") || p.TCP.DstPort != 80 || p.Payload[0] != 'a' {
		t.Error("CloneMut shares state with the original")
	}
}

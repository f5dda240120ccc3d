// Package subtest is the substrate conformance suite: a single set of
// behavioral tests every execution backend must pass, run against the
// abstract substrate surface only. The deterministic simulator
// (internal/netsim) and the real-time backend (internal/rtnet) both
// wire a Harness into Run from their own test packages, which is what
// keeps "the same ASP runs unchanged on either backend" an enforced
// property instead of an aspiration.
//
// The suite is deliberately written against substrate.Node / Iface /
// Env and the substrate.Topology each test declares alone — if a test
// needs a backend-specific knob, the knob belongs in the Topology or the
// Harness, not in the test.
package subtest

import (
	"bytes"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// LinkBps is the nominal bandwidth of every link and segment the suite
// declares: slow enough that the few packets LinkFault sends move Load
// by whole percents.
const LinkBps = 200_000

// Harness adapts one backend to the suite. A fresh harness is built for
// every subtest.
type Harness interface {
	// Build builds spec on a fresh network (substrate.Build with the
	// backend's constructors) and returns the nodes in spec order.
	Build(t *testing.T, spec *substrate.Topology) []substrate.Node

	// Start begins packet processing. Bindings, processors, and event
	// subscribers registered before Start are visible to all traffic.
	Start()

	// Settle processes in-flight traffic until the network is quiescent
	// (the simulator drains its event queue; the real-time backend
	// waits for in-flight packets to finish).
	Settle(t *testing.T)

	// Env returns the backend's substrate environment.
	Env() substrate.Env
}

// procFunc adapts a function to substrate.Processor.
type procFunc func(pkt *substrate.Packet, in substrate.Iface) bool

func (f procFunc) Process(pkt *substrate.Packet, in substrate.Iface) bool { return f(pkt, in) }

// Addresses used by the suite.
var (
	addrA = substrate.MustAddr("10.9.0.1")
	addrR = substrate.MustAddr("10.9.0.2")
	addrB = substrate.MustAddr("10.9.0.3")
	addrP = substrate.MustAddr("10.9.0.4")
	addrX = substrate.MustAddr("10.9.0.5")
)

// line declares hosts joined in order by links of LinkBps.
func line(hosts ...substrate.NodeSpec) *substrate.Topology {
	t := &substrate.Topology{Nodes: hosts}
	for i := 1; i < len(hosts); i++ {
		t.Links = append(t.Links, substrate.LinkSpec{A: hosts[i-1].Name, B: hosts[i].Name, Bandwidth: LinkBps})
	}
	return t
}

func twoHosts() *substrate.Topology {
	return line(substrate.NodeSpec{Name: "ca", Addr: addrA}, substrate.NodeSpec{Name: "cb", Addr: addrB})
}

func lineWithRouter() *substrate.Topology {
	return line(
		substrate.NodeSpec{Name: "ca", Addr: addrA},
		substrate.NodeSpec{Name: "cr", Addr: addrR, Forwarding: true},
		substrate.NodeSpec{Name: "cb", Addr: addrB},
	)
}

// Run executes the conformance suite, building a fresh harness from mk
// for each subtest.
func Run(t *testing.T, mk func() Harness) {
	t.Run("Delivery", func(t *testing.T) { testDelivery(t, mk()) })
	t.Run("NoBindingDrop", func(t *testing.T) { testNoBindingDrop(t, mk()) })
	t.Run("RawBinding", func(t *testing.T) { testRawBinding(t, mk()) })
	t.Run("ForwardTTL", func(t *testing.T) { testForwardTTL(t, mk()) })
	t.Run("ProcessorHook", func(t *testing.T) { testProcessorHook(t, mk()) })
	t.Run("ProcessorFallthrough", func(t *testing.T) { testProcessorFallthrough(t, mk()) })
	t.Run("SplitHorizon", func(t *testing.T) { testSplitHorizon(t, mk()) })
	t.Run("RelayTTL", func(t *testing.T) { testRelayTTL(t, mk()) })
	t.Run("Flood", func(t *testing.T) { testFlood(t, mk()) })
	t.Run("EnvClockTimerRand", func(t *testing.T) { testEnvClockTimerRand(t, mk()) })
	t.Run("MetricsAndEvents", func(t *testing.T) { testMetricsAndEvents(t, mk()) })
	t.Run("Crash", func(t *testing.T) { testCrash(t, mk()) })
	t.Run("SelfAndBroadcast", func(t *testing.T) { testSelfAndBroadcast(t, mk()) })
	t.Run("Multicast", func(t *testing.T) { testMulticast(t, mk()) })
	t.Run("LinkFault", func(t *testing.T) { testLinkFault(t, mk) })
	t.Run("Segment", func(t *testing.T) { testSegment(t, mk()) })
	t.Run("Promisc", func(t *testing.T) { testPromisc(t, mk()) })
}

// counter returns the named registry value.
func counter(h Harness, name string) int64 { return h.Env().Metrics().Snapshot()[name] }

// testDelivery: a UDP packet sent host-to-host reaches the bound
// application with its payload intact, and the delivery is counted
// under the standard metric name.
func testDelivery(t *testing.T, h Harness) {
	nodes := h.Build(t, twoHosts())
	a, b := nodes[0], nodes[1]

	var got atomic.Pointer[string]
	b.BindUDP(7, func(pkt *substrate.Packet) {
		s := string(pkt.Payload)
		got.Store(&s)
	})
	h.Start()

	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, []byte("ping")).Own())
	h.Settle(t)

	if s := got.Load(); s == nil || *s != "ping" {
		t.Fatalf("payload not delivered: got %v", got.Load())
	}
	snap := h.Env().Metrics().Snapshot()
	if snap["node.cb.delivered_pkts"] != 1 {
		t.Fatalf("node.cb.delivered_pkts = %d, want 1", snap["node.cb.delivered_pkts"])
	}
	if snap["node.ca.sent_pkts"] != 1 {
		t.Fatalf("node.ca.sent_pkts = %d, want 1", snap["node.ca.sent_pkts"])
	}
}

// testNoBindingDrop: delivery to a port nobody bound counts a drop, not
// a delivery.
func testNoBindingDrop(t *testing.T, h Harness) {
	nodes := h.Build(t, twoHosts())
	a, b := nodes[0], nodes[1]
	h.Start()

	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 9999, nil).Own())
	h.Settle(t)

	snap := h.Env().Metrics().Snapshot()
	if snap["node.cb.dropped_pkts"] != 1 {
		t.Fatalf("node.cb.dropped_pkts = %d, want 1", snap["node.cb.dropped_pkts"])
	}
}

// testRawBinding: a port binding takes its port's packets, and a raw
// binding gets every other local packet, TCP and UDP alike.
func testRawBinding(t *testing.T, h Harness) {
	nodes := h.Build(t, twoHosts())
	a, b := nodes[0], nodes[1]

	var bound, raw atomic.Int32
	b.BindUDP(7, func(*substrate.Packet) { bound.Add(1) })
	b.BindRaw(func(*substrate.Packet) { raw.Add(1) })
	h.Start()

	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil).Own())
	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 8, nil).Own())
	a.Send(substrate.NewTCP(a.Address(), b.Address(), 1234, 80, 0, substrate.FlagSyn, nil).Own())
	h.Settle(t)

	if got := bound.Load(); got != 1 {
		t.Fatalf("port binding got %d packets, want 1", got)
	}
	if got := raw.Load(); got != 2 {
		t.Fatalf("raw binding got %d packets, want 2 (the unbound UDP port and the TCP port)", got)
	}
	if snap := h.Env().Metrics().Snapshot(); snap["node.cb.delivered_pkts"] != 3 || snap["node.cb.dropped_pkts"] != 0 {
		t.Fatalf("node.cb delivered %d, dropped %d; want 3 and 0",
			snap["node.cb.delivered_pkts"], snap["node.cb.dropped_pkts"])
	}
}

// testForwardTTL: a router forwards transit traffic (decrementing TTL)
// and drops packets whose TTL would expire.
func testForwardTTL(t *testing.T, h Harness) {
	nodes := h.Build(t, lineWithRouter())
	a, b := nodes[0], nodes[2]

	var ttl atomic.Int32
	b.BindUDP(7, func(pkt *substrate.Packet) { ttl.Store(int32(pkt.IP.TTL)) })
	h.Start()

	p := substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil)
	p.IP.TTL = 10
	a.Send(p.Own())

	expired := substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil)
	expired.IP.TTL = 1
	a.Send(expired.Own())
	h.Settle(t)

	if got := ttl.Load(); got != 9 {
		t.Fatalf("delivered TTL = %d, want 9 (router must decrement)", got)
	}
	snap := h.Env().Metrics().Snapshot()
	if snap["node.cr.forwarded_pkts"] != 1 {
		t.Fatalf("node.cr.forwarded_pkts = %d, want 1", snap["node.cr.forwarded_pkts"])
	}
	if snap["node.cr.dropped_pkts"] != 1 {
		t.Fatalf("node.cr.dropped_pkts = %d, want 1 (ttl expiry)", snap["node.cr.dropped_pkts"])
	}
	if snap["node.cb.delivered_pkts"] != 1 {
		t.Fatalf("node.cb.delivered_pkts = %d, want 1", snap["node.cb.delivered_pkts"])
	}
}

// testProcessorHook: an installed processor intercepts traffic
// (returning true consumes the packet); uninstalling restores default
// processing. This is the install/uninstall surface planprt drives.
func testProcessorHook(t *testing.T, h Harness) {
	nodes := h.Build(t, lineWithRouter())
	a, r, b := nodes[0], nodes[1], nodes[2]

	var seen atomic.Int32
	blackhole := procFunc(func(pkt *substrate.Packet, in substrate.Iface) bool {
		seen.Add(1)
		return true // consumed: no forward, no delivery
	})
	if r.CurrentProcessor() != nil {
		t.Fatalf("fresh node has a processor installed")
	}
	r.SetProcessor(blackhole)
	if r.CurrentProcessor() == nil {
		t.Fatalf("CurrentProcessor nil after SetProcessor")
	}
	b.BindUDP(7, func(pkt *substrate.Packet) {})
	h.Start()

	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil).Own())
	h.Settle(t)
	if seen.Load() != 1 {
		t.Fatalf("processor saw %d packets, want 1", seen.Load())
	}
	snap := h.Env().Metrics().Snapshot()
	if snap["node.cb.delivered_pkts"] != 0 {
		t.Fatalf("packet delivered despite intercepting processor")
	}

	r.SetProcessor(nil)
	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil).Own())
	h.Settle(t)
	if seen.Load() != 1 {
		t.Fatalf("uninstalled processor still sees packets")
	}
	snap = h.Env().Metrics().Snapshot()
	if snap["node.cb.delivered_pkts"] != 1 {
		t.Fatalf("node.cb.delivered_pkts = %d after uninstall, want 1", snap["node.cb.delivered_pkts"])
	}
}

// testProcessorFallthrough: a processor returning false falls through
// to default processing (the runtime's "not my protocol" path).
func testProcessorFallthrough(t *testing.T, h Harness) {
	nodes := h.Build(t, lineWithRouter())
	a, r, b := nodes[0], nodes[1], nodes[2]

	r.SetProcessor(procFunc(func(pkt *substrate.Packet, in substrate.Iface) bool { return false }))
	b.BindUDP(7, func(pkt *substrate.Packet) {})
	h.Start()

	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil).Own())
	h.Settle(t)
	snap := h.Env().Metrics().Snapshot()
	if snap["node.cb.delivered_pkts"] != 1 {
		t.Fatalf("node.cb.delivered_pkts = %d, want 1 (fall-through)", snap["node.cb.delivered_pkts"])
	}
}

// dropEvents counts the KindDrop events node publishes with detail.
func dropEvents(h Harness, node, detail string) *atomic.Int32 {
	var n atomic.Int32
	h.Env().Events().Subscribe(obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.KindDrop && ev.Node == node && ev.Detail == detail {
			n.Add(1)
		}
	}))
	return &n
}

// relayAtB builds two hosts, has b relay whatever it receives, and
// sends one packet at ttl from a to a destination b can only reach back
// through a. It returns whether Relay sent the packet and how many drop
// events b published with detail.
func relayAtB(t *testing.T, h Harness, ttl uint8, detail string) (sent bool, drops int32) {
	nodes := h.Build(t, twoHosts())
	a, b := nodes[0], nodes[1]
	dropped := dropEvents(h, "cb", detail)
	var out atomic.Bool
	b.SetProcessor(procFunc(func(pkt *substrate.Packet, in substrate.Iface) bool {
		out.Store(b.Relay(pkt.Clone(), in))
		return true
	}))
	h.Start()

	p := substrate.NewUDP(a.Address(), substrate.MustAddr("10.99.99.99"), 1234, 7, nil)
	p.IP.TTL = ttl
	a.Send(p.Own())
	h.Settle(t)
	if got := counter(h, "node.ca.received_pkts"); got != 0 {
		t.Fatalf("Relay sent the packet back out its incoming interface")
	}
	if got := counter(h, "node.cb.dropped_pkts"); got != int64(dropped.Load()) {
		t.Fatalf("node.cb.dropped_pkts = %d but %d %q drop events", got, dropped.Load(), detail)
	}
	return out.Load(), dropped.Load()
}

// testSplitHorizon: Relay never sends a packet back out the interface
// it arrived on — the OnRemote suppression the runtime relies on to
// avoid reflection loops — and counts the packet that therefore cannot
// leave as one "no-route" node drop, published.
func testSplitHorizon(t *testing.T, h Harness) {
	if sent, drops := relayAtB(t, h, 64, "no-route"); sent || drops != 1 {
		t.Fatalf("Relay back out the arrival interface: sent %v, %d no-route drops; want false and 1", sent, drops)
	}
}

// testRelayTTL: Relay of a packet whose TTL would expire is one "ttl"
// node drop, published.
func testRelayTTL(t *testing.T, h Harness) {
	if sent, drops := relayAtB(t, h, 1, "ttl"); sent || drops != 1 {
		t.Fatalf("Relay at TTL 1: sent %v, %d ttl drops; want false and 1", sent, drops)
	}
}

// testFlood: Flood sends one copy out of each interface but the arrival
// one, with the TTL decremented, and a packet whose TTL would expire is
// one "ttl" node drop.
func testFlood(t *testing.T, h Harness) {
	nodes := h.Build(t, lineWithRouter())
	a, r, b := nodes[0], nodes[1], nodes[2]
	ttlDrops := dropEvents(h, "cr", "ttl")
	var copies, ttl atomic.Int32
	r.SetProcessor(procFunc(func(pkt *substrate.Packet, in substrate.Iface) bool {
		copies.Add(int32(r.Flood(pkt.Clone(), in)))
		return true
	}))
	b.BindUDP(7, func(pkt *substrate.Packet) { ttl.Store(int32(pkt.IP.TTL)) })
	h.Start()

	for _, hops := range []uint8{10, 1} {
		p := substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil)
		p.IP.TTL = hops
		a.Send(p.Own())
		h.Settle(t)
	}
	if copies.Load() != 1 || ttl.Load() != 9 || counter(h, "node.ca.received_pkts") != 0 {
		t.Fatalf("Flood on the router: %d copies, b delivered TTL %d, a received %d; want 1, 9, 0",
			copies.Load(), ttl.Load(), counter(h, "node.ca.received_pkts"))
	}
	if ttlDrops.Load() != 1 || counter(h, "node.cr.dropped_pkts") != 1 {
		t.Fatalf("Flood at TTL 1: %d ttl drop events, node.cr.dropped_pkts = %d; want 1 and 1",
			ttlDrops.Load(), counter(h, "node.cr.dropped_pkts"))
	}
}

// testEnvClockTimerRand: Env time is monotone, After fires its
// callback, and the draws stay in range: Int63n in [0, n), Float64 in
// [0, 1), ExpFloat64 non-negative.
func testEnvClockTimerRand(t *testing.T, h Harness) {
	h.Build(t, twoHosts())
	env := h.Env()

	t0 := env.Now()
	var fired atomic.Bool
	env.After(2*time.Millisecond, func() { fired.Store(true) })
	h.Start()
	h.Settle(t)

	deadline := time.Now().Add(5 * time.Second)
	for !fired.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("After callback never fired")
		}
		time.Sleep(time.Millisecond)
		h.Settle(t)
	}
	if env.Now() < t0 {
		t.Fatalf("Env clock went backwards: %v then %v", t0, env.Now())
	}
	for i := 0; i < 100; i++ {
		if v := env.Int63n(10); v < 0 || v >= 10 {
			t.Fatalf("Int63n(10) = %d out of range", v)
		}
		if v := env.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0, 1)", v)
		}
		if v := env.ExpFloat64(); v < 0 {
			t.Fatalf("ExpFloat64() = %v is negative", v)
		}
	}
}

// kindCounts tallies events by kind. Unlike obs.CountingSink it is safe
// for the concurrent publishes of a wall-clock backend, where two
// goroutines send the same kind.
type kindCounts [obs.NumKinds]atomic.Int32

func (c *kindCounts) OnEvent(ev obs.Event) { c[ev.Kind].Add(1) }

// testMetricsAndEvents: packet-granular events reach a subscriber
// attached before Start, with the standard kinds: one enqueue per link
// a packet crosses, one forward per router, one deliver.
func testMetricsAndEvents(t *testing.T, h Harness) {
	nodes := h.Build(t, lineWithRouter())
	a, b := nodes[0], nodes[2]

	var counts kindCounts
	h.Env().Events().Subscribe(&counts)
	b.BindUDP(7, func(pkt *substrate.Packet) {})
	h.Start()

	for i := 0; i < 3; i++ {
		a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil).Own())
	}
	h.Settle(t)

	for _, c := range []struct {
		kind obs.Kind
		want int32
	}{{obs.KindEnqueue, 6}, {obs.KindForward, 3}, {obs.KindDeliver, 3}} {
		if got := counts[c.kind].Load(); got != c.want {
			t.Fatalf("%s events = %d, want %d", c.kind, got, c.want)
		}
	}
}

// testCrash: a crashed node drops what it receives and what it
// originates, counted with Detail "crashed", and loses its processor;
// Restart brings it back bare, with its routes and bindings.
func testCrash(t *testing.T, h Harness) {
	nodes := h.Build(t, twoHosts())
	a, b := nodes[0], nodes[1]

	crashed := dropEvents(h, "cb", "crashed")
	var atA, atB atomic.Int32
	a.BindUDP(7, func(*substrate.Packet) { atA.Add(1) })
	b.BindUDP(7, func(*substrate.Packet) { atB.Add(1) })
	b.SetProcessor(procFunc(func(*substrate.Packet, substrate.Iface) bool { return false }))
	h.Start()

	b.(substrate.Crasher).Crash()
	if b.CurrentProcessor() != nil {
		t.Fatalf("the crash left the processor installed")
	}
	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil).Own())
	b.Send(substrate.NewUDP(b.Address(), a.Address(), 1234, 7, nil).Own())
	h.Settle(t)
	if got, dropped := crashed.Load(), counter(h, "node.cb.dropped_pkts"); got != 2 || dropped != 2 {
		t.Fatalf("crashed node: %d \"crashed\" drop events, node.cb.dropped_pkts = %d; want 2 and 2", got, dropped)
	}
	if atA.Load() != 0 || atB.Load() != 0 {
		t.Fatalf("traffic to or from a crashed node was delivered (a %d, b %d)", atA.Load(), atB.Load())
	}

	b.(substrate.Crasher).Restart()
	if b.CurrentProcessor() != nil {
		t.Fatalf("Restart reinstalled a processor")
	}
	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil).Own())
	b.Send(substrate.NewUDP(b.Address(), a.Address(), 1234, 7, nil).Own())
	h.Settle(t)
	if atA.Load() != 1 || atB.Load() != 1 {
		t.Fatalf("after Restart a got %d, b got %d; want 1 each (routes and bindings survive)", atA.Load(), atB.Load())
	}
}

// testSelfAndBroadcast: a packet a node sends to itself is delivered
// without passing its processor (the PLAN-P layer sees network traffic
// only); 255.255.255.255 is delivered where it lands and never
// forwarded.
func testSelfAndBroadcast(t *testing.T, h Harness) {
	nodes := h.Build(t, lineWithRouter())
	a, r, b := nodes[0], nodes[1], nodes[2]

	var seen, self, bcast, beyond atomic.Int32
	a.SetProcessor(procFunc(func(*substrate.Packet, substrate.Iface) bool {
		seen.Add(1)
		return false
	}))
	a.BindUDP(7, func(*substrate.Packet) { self.Add(1) })
	r.BindUDP(7, func(*substrate.Packet) { bcast.Add(1) })
	b.BindUDP(7, func(*substrate.Packet) { beyond.Add(1) })
	h.Start()

	a.Send(substrate.NewUDP(a.Address(), a.Address(), 1234, 7, nil).Own())
	a.Send(substrate.NewUDP(a.Address(), 0xFFFFFFFF, 1234, 7, nil).Own())
	h.Settle(t)
	if self.Load() != 1 || seen.Load() != 0 {
		t.Fatalf("self-addressed send: delivered %d, processor saw %d; want 1 and 0", self.Load(), seen.Load())
	}
	if fwd := counter(h, "node.cr.forwarded_pkts"); bcast.Load() != 1 || beyond.Load() != 0 || fwd != 0 {
		t.Fatalf("broadcast: router delivered %d and forwarded %d, b delivered %d; want 1, 0, 0", bcast.Load(), fwd, beyond.Load())
	}
}

// testMulticast: a router sends one copy of a group packet out each
// multicast route, never back out the interface it came in on; a packet
// fanned out to more than one route is disowned, since the copies share
// it; a member that joined the group delivers it, another host does not.
func testMulticast(t *testing.T, h Harness) {
	group := substrate.MustAddr("239.9.0.1")
	spec := lineWithRouter()
	spec.Mroutes = []substrate.RouteSpec{{Node: "cr", Dst: group, Via: "ca"}, {Node: "cr", Dst: group, Via: "cb"}}
	spec.Joins = []substrate.JoinSpec{{Node: "cb", Group: group}}
	nodes := h.Build(t, spec)
	a, r, b := nodes[0], nodes[1], nodes[2]
	var atA, atB atomic.Int32
	a.BindUDP(7, func(*substrate.Packet) { atA.Add(1) })
	b.BindUDP(7, func(*substrate.Packet) { atB.Add(1) })
	h.Start()

	a.Send(substrate.NewUDP(a.Address(), group, 1234, 7, nil).Own())
	h.Settle(t)
	if got := counter(h, "node.ca.received_pkts"); got != 0 {
		t.Fatalf("the router sent the group packet back out its incoming interface")
	}
	if fwd := counter(h, "node.cr.forwarded_pkts"); atB.Load() != 1 || fwd != 1 {
		t.Fatalf("group packet from a: router forwarded %d, member delivered %d; want 1 and 1", fwd, atB.Load())
	}

	pkt := substrate.NewUDP(r.Address(), group, 1234, 7, nil).Own()
	r.Send(pkt)
	if pkt.Owned() {
		t.Errorf("a packet fanned out to two routes is still owned")
	}
	h.Settle(t)
	if got := counter(h, "node.ca.received_pkts"); got != 1 || atB.Load() != 2 {
		t.Fatalf("group packet from the router: a received %d, b delivered %d in all; want 1 and 2", got, atB.Load())
	}
	if atA.Load() != 0 {
		t.Fatalf("a host that did not join the group delivered %d of its packets", atA.Load())
	}
}

// testLinkFault: one fault verdict per row on a link's sending port, the
// same rule on every backend and link kind. For each row the receiver
// gets the copies the verdict makes, each delayed copy arrives no
// sooner than the delay, corruption flips exactly one bit of a private
// copy and the sender's packet keeps its payload. Each dropped send is
// one "fault" drop event and fault count, with no medium loss; each
// copy is one enqueue event and meters pkt.Size() toward Load.
func testLinkFault(t *testing.T, mk func() Harness) {
	const (
		sends = 5
		delay = 30 * time.Millisecond
	)
	rows := []struct {
		name   string
		act    substrate.FaultAction
		copies int // per send
	}{
		{"drop", substrate.FaultAction{Drop: true}, 0},
		{"dup2", substrate.FaultAction{Dup: 2}, 3},
		{"delay", substrate.FaultAction{Delay: delay}, 1},
		{"corrupt", substrate.FaultAction{Corrupt: true, CorruptBit: 11}, 1},
		{"delay+dup", substrate.FaultAction{Delay: delay, Dup: 1}, 2},
	}
	payload := bytes.Repeat([]byte{0xA5}, 100)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := mk()
			nodes := h.Build(t, twoHosts())
			a, b := nodes[0], nodes[1]
			env := h.Env()
			out := a.Route(b.Address())

			var (
				mu       sync.Mutex
				got      [][]byte
				arrivals []time.Duration
			)
			b.BindUDP(7, func(pkt *substrate.Packet) {
				at := env.Now()
				mu.Lock()
				got = append(got, append([]byte(nil), pkt.Payload...))
				arrivals = append(arrivals, at)
				mu.Unlock()
			})
			count := func() int { mu.Lock(); defer mu.Unlock(); return len(got) }
			var enqueued, faultDrops, mediumDrops atomic.Int32
			env.Events().Subscribe(obs.Func(func(ev obs.Event) {
				switch {
				case ev.Kind == obs.KindEnqueue:
					enqueued.Add(1)
				case ev.Kind == obs.KindDrop && ev.Detail == "fault":
					faultDrops.Add(1)
				case ev.Kind == obs.KindDrop:
					mediumDrops.Add(1)
				}
			}))
			out.(substrate.FaultPort).SetFault(func(*substrate.Packet) substrate.FaultAction { return row.act })
			h.Start()

			t0 := env.Now()
			sent := make([]*substrate.Packet, sends)
			for k := range sent {
				sent[k] = substrate.NewUDP(a.Address(), b.Address(), 9, 7, append([]byte(nil), payload...))
				out.Send(sent[k])
			}
			want := sends * row.copies
			settleUntil(t, h, func() bool { return count() >= want })

			// Load reads every copy's pkt.Size() once the meter's
			// current bucket completes, until the first copy leaves the
			// window.
			window := substrate.DefaultMeterWindow
			size := sent[0].Size()
			wantLoad := int64(want*size) * 8 * int64(time.Second) / int64(window-window/10) * 100 / LinkBps
			var load atomic.Int64
			var polled atomic.Bool
			var poll func(left int)
			poll = func(left int) {
				load.Store(out.Load())
				if load.Load() == wantLoad || left == 0 {
					polled.Store(true)
					return
				}
				env.After(5*time.Millisecond, func() { poll(left - 1) })
			}
			env.After(5*time.Millisecond, func() { poll(100) })
			settleUntil(t, h, polled.Load)
			if load.Load() != wantLoad {
				t.Errorf("Load() = %d after %d copies of %d bytes, want %d", load.Load(), want, size, wantLoad)
			}
			time.Sleep(2 * delay) // an extra copy would land by now
			h.Settle(t)

			mu.Lock()
			defer mu.Unlock()
			if len(got) != want {
				t.Fatalf("receiver saw %d packets, want %d", len(got), want)
			}
			for k, p := range got {
				if at := arrivals[k] - t0; at < row.act.Delay {
					t.Errorf("copy %d arrived %v after the send, before the %v delay", k, at, row.act.Delay)
				}
				flipped := 0
				for j := range p {
					flipped += bits.OnesCount8(p[j] ^ payload[j])
				}
				if len(p) != len(payload) || row.act.Corrupt != (flipped == 1) || flipped > 1 {
					t.Errorf("copy %d: %d payload bits differ from what was sent (corrupt=%v)", k, flipped, row.act.Corrupt)
				}
			}
			for _, pkt := range sent {
				if !bytes.Equal(pkt.Payload, payload) {
					t.Fatalf("the link wrote through the sender's payload")
				}
			}
			wantFault := 0
			if row.act.Drop {
				wantFault = sends
			}
			_, _, ct := out.(substrate.Medium).Wire()
			if n := ct.FaultDropPkts.Value(); n != int64(wantFault) || faultDrops.Load() != int32(wantFault) {
				t.Errorf("%d fault drops counted, %d published; want %d", n, faultDrops.Load(), wantFault)
			}
			if n := ct.DropPkts.Value(); n != 0 || mediumDrops.Load() != 0 {
				t.Errorf("%d medium drops counted, %d published; want 0: a fault verdict is never a medium loss", n, mediumDrops.Load())
			}
			if n := enqueued.Load(); n != int32(want) {
				t.Errorf("%d enqueue events, want one per copy: %d", n, want)
			}
		})
	}
}

// segment declares one segment of LinkBps carrying a sender ca, the
// host cb it addresses, a forwarding router cr, a promiscuous host cp
// and a bystander cx.
func segment() *substrate.Topology {
	return &substrate.Topology{
		Nodes: []substrate.NodeSpec{
			{Name: "ca", Addr: addrA},
			{Name: "cb", Addr: addrB},
			{Name: "cr", Addr: addrR, Forwarding: true},
			{Name: "cp", Addr: addrP},
			{Name: "cx", Addr: addrX},
		},
		Segments: []substrate.SegmentSpec{{
			Name: "lan", Bandwidth: LinkBps,
			Members: []string{"ca", "cb", "cr", "cp", "cx"}, Promisc: []string{"cp"},
		}},
	}
}

// testSegment: a frame on a segment reaches the host it is addressed
// to and every forwarding or promiscuous attachment, and no other host;
// the one packet they share is disowned. Each send is one enqueue
// event, and every attachment reads the segment's one Load.
func testSegment(t *testing.T, h Harness) {
	nodes := h.Build(t, segment())
	a, b := nodes[0], nodes[1]
	var counts kindCounts
	h.Env().Events().Subscribe(&counts)
	var delivered atomic.Int32
	b.BindUDP(7, func(*substrate.Packet) { delivered.Add(1) })
	h.Start()

	const sends = 3
	var size int
	for k := 0; k < sends; k++ {
		pkt := substrate.NewUDP(a.Address(), b.Address(), 1234, 7, make([]byte, 100)).Own()
		size = pkt.Size()
		a.Send(pkt)
		if pkt.Owned() {
			t.Errorf("a frame three attachments take is still owned")
		}
	}
	h.Settle(t)
	if delivered.Load() != sends {
		t.Errorf("the addressed host delivered %d frames, want %d", delivered.Load(), sends)
	}
	for name, want := range map[string]int64{"ca": 0, "cb": sends, "cr": sends, "cp": sends, "cx": 0} {
		if got := counter(h, "node."+name+".received_pkts"); got != want {
			t.Errorf("node.%s.received_pkts = %d, want %d", name, got, want)
		}
	}
	if got := counts[obs.KindEnqueue].Load(); got != sends {
		t.Errorf("%d enqueue events, want one per send: %d", got, sends)
	}

	// Every attachment reads the one meter: the sends' bytes once its
	// current bucket completes, until they leave the window.
	window := substrate.DefaultMeterWindow
	wantLoad := int64(sends*size) * 8 * int64(time.Second) / int64(window-window/10) * 100 / LinkBps
	env := h.Env()
	var loads [5]atomic.Int64
	var polled atomic.Bool
	var poll func(left int)
	poll = func(left int) {
		same := true
		for k, n := range nodes {
			loads[k].Store(n.Route(0).Load()) // each stub's one interface: the segment
			same = same && loads[k].Load() == wantLoad
		}
		if same || left == 0 {
			polled.Store(true)
			return
		}
		env.After(5*time.Millisecond, func() { poll(left - 1) })
	}
	env.After(5*time.Millisecond, func() { poll(100) })
	settleUntil(t, h, polled.Load)
	for k, n := range nodes {
		if got := loads[k].Load(); got != wantLoad {
			t.Errorf("%s reads Load %d, want the segment's %d", n.Hostname(), got, wantLoad)
		}
	}
}

// testPromisc: a processor on a promiscuous attachment sees the frames
// other hosts exchange and may deliver them locally, as the §3.3
// capture ASPs do; on a host that is not promiscuous it sees none.
func testPromisc(t *testing.T, h Harness) {
	nodes := h.Build(t, segment())
	a, b, p, x := nodes[0], nodes[1], nodes[3], nodes[4]
	var seen, captured [2]atomic.Int32
	for k, n := range []substrate.Node{p, x} {
		n.SetProcessor(procFunc(func(pkt *substrate.Packet, in substrate.Iface) bool {
			seen[k].Add(1)
			n.DeliverLocal(pkt)
			return true
		}))
		n.BindUDP(7, func(*substrate.Packet) { captured[k].Add(1) })
	}
	var delivered atomic.Int32
	b.BindUDP(7, func(*substrate.Packet) { delivered.Add(1) })
	h.Start()

	a.Send(substrate.NewUDP(a.Address(), b.Address(), 1234, 7, nil).Own())
	h.Settle(t)
	if seen[0].Load() != 1 || captured[0].Load() != 1 {
		t.Errorf("promiscuous host: processor saw %d, captured %d; want 1 and 1", seen[0].Load(), captured[0].Load())
	}
	if seen[1].Load() != 0 || captured[1].Load() != 0 {
		t.Errorf("bystander: processor saw %d, captured %d; want 0 and 0", seen[1].Load(), captured[1].Load())
	}
	if delivered.Load() != 1 {
		t.Errorf("the addressed host delivered %d, want 1", delivered.Load())
	}
}

// settleUntil settles h until done holds, for up to five seconds: on a
// wall-clock backend, timers run outside what Settle waits for.
func settleUntil(t *testing.T, h Harness, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.Settle(t); !done() && time.Now().Before(deadline); h.Settle(t) {
		time.Sleep(time.Millisecond)
	}
}

package planp_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	planp "planp.dev/planp"
	"planp.dev/planp/asp"
	"planp.dev/planp/internal/planprt"
)

const forwardCounter = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
`

func TestCompileDefaults(t *testing.T) {
	proto, err := planp.Compile(forwardCounter)
	if err != nil {
		t.Fatal(err)
	}
	if proto.EngineName() != "jit" {
		t.Errorf("default engine %s", proto.EngineName())
	}
	if !proto.Report().AllOK() {
		t.Errorf("report:\n%s", proto.Report())
	}
	if proto.CodegenTime() <= 0 {
		t.Error("codegen time not recorded")
	}
}

func TestCompileEngineOption(t *testing.T) {
	for _, eng := range []planp.Engine{planp.Interp, planp.JIT} {
		proto, err := planp.Compile(forwardCounter, planp.WithEngine(eng))
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if planp.Engine(proto.EngineName()) != eng {
			t.Errorf("engine %s, want %s", proto.EngineName(), eng)
		}
	}
	for _, eng := range []planp.Engine{"nonesuch", "bytecode"} {
		if _, err := planp.Compile(forwardCounter, planp.WithEngine(eng)); err == nil {
			t.Errorf("engine %q should fail", eng)
		}
	}
}

func TestCompileRejectsUnsafe(t *testing.T) {
	dropper := `
channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)
`
	if _, err := planp.Compile(dropper); err == nil {
		t.Fatal("packet dropper must be rejected")
	}
	proto, err := planp.Compile(dropper, planp.WithVerification(planp.VerifyPrivileged))
	if err != nil {
		t.Fatalf("privileged compile: %v", err)
	}
	if proto.Report().AllOK() {
		t.Error("privileged compile should still record the failure")
	}
}

func TestCompileSyntaxAndTypeErrors(t *testing.T) {
	if _, err := planp.Compile("val x ="); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := planp.Compile(`
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + "x", ss))
`); err == nil {
		t.Error("type error not reported")
	}
}

func TestCheckEntryPoint(t *testing.T) {
	info, err := planp.Check(asp.MPEGMonitor)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Channels) != 4 {
		t.Errorf("channels = %d", len(info.Channels))
	}
}

// TestCheckDoesNotCompile: Check stops after the type checker, so it
// neither fills nor reads the compiled-program cache.
func TestCheckDoesNotCompile(t *testing.T) {
	hits, misses := planprt.CacheStats()
	if _, err := planp.Check(forwardCounter); err != nil {
		t.Fatal(err)
	}
	if h, m := planprt.CacheStats(); h != hits || m != misses {
		t.Errorf("cache (hits, misses) moved from (%d, %d) to (%d, %d) across Check", hits, misses, h, m)
	}
}

// build builds t on net, failing the test on an error.
func build(t *testing.T, net *planp.Network, topo *planp.Topology) *planp.Built {
	t.Helper()
	b, err := net.Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// routerBetween declares client -- router -- server on 10 Mb/s links.
func routerBetween(client, router, server string) *planp.Topology {
	return &planp.Topology{
		Nodes: []planp.NodeSpec{
			{Name: client, Addr: planp.MustAddr("10.0.1.1")},
			{Name: router, Addr: planp.MustAddr("10.0.0.254"), Forwarding: true},
			{Name: server, Addr: planp.MustAddr("10.0.2.1")},
		},
		Links: []planp.LinkSpec{
			{A: client, B: router, Bandwidth: 10_000_000},
			{A: router, B: server, Bandwidth: 10_000_000},
		},
	}
}

// pair declares hosts a (10.0.0.1) and b (10.0.0.2) on one 10 Mb/s link.
func pair() *planp.Topology {
	return &planp.Topology{
		Nodes: []planp.NodeSpec{
			{Name: "a", Addr: planp.MustAddr("10.0.0.1")},
			{Name: "b", Addr: planp.MustAddr("10.0.0.2")},
		},
		Links: []planp.LinkSpec{{A: "a", B: "b", Bandwidth: 10_000_000}},
	}
}

func TestEndToEndThroughPublicAPI(t *testing.T) {
	net := planp.NewNetwork(planp.WithSeed(9))
	b := build(t, net, routerBetween("client", "router", "server"))
	client, router, server := b.Nodes[0], b.Nodes[1], b.Nodes[2]

	var out bytes.Buffer
	proto, err := planp.Compile(`
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (println("forwarding " ^ itos(blobLen(#3 p)) ^ " bytes");
   OnRemote(network, p);
   (ps + 1, ss))
`)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := proto.DownloadTo(router, &out)
	if err != nil {
		t.Fatal(err)
	}

	got := 0
	server.BindUDP(7, func(*planp.Packet) { got++ })
	for i := 0; i < 3; i++ {
		client.Send(planp.NewUDP(client.Addr, server.Addr, 1000, 7, []byte("abc")))
	}
	net.Run()

	if got != 3 {
		t.Errorf("server received %d, want 3", got)
	}
	if rt.Stats().Processed != 3 {
		t.Errorf("processed %d", rt.Stats().Processed)
	}
	if strings.Count(out.String(), "forwarding 3 bytes") != 3 {
		t.Errorf("output %q", out.String())
	}
	if got := rt.Instance().Proto.AsInt(); got != 3 {
		t.Errorf("protocol state %d", got)
	}
}

func TestSegmentHelpers(t *testing.T) {
	net := planp.NewNetwork()
	built := build(t, net, &planp.Topology{
		Nodes: []planp.NodeSpec{
			{Name: "a", Addr: planp.MustAddr("10.0.0.1")},
			{Name: "b", Addr: planp.MustAddr("10.0.0.2")},
		},
		Segments: []planp.SegmentSpec{{Name: "lan", Bandwidth: 10_000_000, Members: []string{"a", "b"}}},
	})
	a, b := built.Nodes[0], built.Nodes[1]
	got := 0
	b.BindUDP(5, func(*planp.Packet) { got++ })
	a.Send(planp.NewUDP(a.Addr, b.Addr, 1, 5, nil))
	net.Run()
	if got != 1 {
		t.Errorf("segment delivery = %d", got)
	}
}

func TestNetworkClock(t *testing.T) {
	net := planp.NewNetwork()
	fired := []time.Duration{}
	net.At(5*time.Millisecond, func() { fired = append(fired, net.Now()) })
	net.After(10*time.Millisecond, func() { fired = append(fired, net.Now()) })
	net.Run(planp.WithDuration(7 * time.Millisecond))
	if len(fired) != 1 || fired[0] != 5*time.Millisecond {
		t.Errorf("fired %v after 7ms", fired)
	}
	net.Run(planp.WithDeadline(20 * time.Millisecond))
	if len(fired) != 2 || fired[1] != 10*time.Millisecond {
		t.Errorf("fired %v after 20ms", fired)
	}
	if net.Now() != 20*time.Millisecond {
		t.Errorf("now = %v", net.Now())
	}
}

func TestSingleNodeDownloadLimitThroughAPI(t *testing.T) {
	net := planp.NewNetwork()
	built := build(t, net, pair())
	a, b := built.Nodes[0], built.Nodes[1]
	proto, err := planp.Compile(asp.HTTPGateway, planp.WithVerification(planp.VerifySingleNode))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.DownloadTo(a, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.DownloadTo(b, nil); err == nil {
		t.Error("second download of a single-node protocol must fail")
	}
}

func TestAllPaperASPsCompileThroughAPI(t *testing.T) {
	policies := map[string]planp.VerifyPolicy{
		"audio-router": planp.VerifyNetwork,
		"audio-client": planp.VerifyNetwork,
		"http-gateway": planp.VerifySingleNode,
		"mpeg-monitor": planp.VerifyNetwork,
		"mpeg-client":  planp.VerifyNetwork,
	}
	for _, p := range asp.All() {
		if _, err := planp.Compile(p.Source, planp.WithVerification(policies[p.Name])); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestNetworkOptionsObservability(t *testing.T) {
	var counts planp.EventCounts
	var trace bytes.Buffer
	ring := planp.NewEventRing(8)
	net := planp.NewNetwork(
		planp.WithSeed(7),
		planp.WithObserver(&counts),
		planp.WithObserver(ring),
		planp.WithTraceWriter(&trace),
	)
	built := build(t, net, routerBetween("a", "r", "b"))
	a, b := built.Nodes[0], built.Nodes[2]
	got := 0
	b.BindUDP(7, func(*planp.Packet) { got++ })
	a.Send(planp.NewUDP(a.Addr, b.Addr, 1000, 7, []byte("hi")))
	net.Run()

	if got != 1 {
		t.Fatalf("delivered %d", got)
	}
	if counts.Count(planp.EventDeliver) != 1 {
		t.Errorf("deliver events = %d", counts.Count(planp.EventDeliver))
	}
	if counts.Count(planp.EventForward) != 1 {
		t.Errorf("forward events = %d", counts.Count(planp.EventForward))
	}
	if ring.Len() == 0 {
		t.Error("ring observer saw nothing")
	}
	if !strings.Contains(trace.String(), "deliver") {
		t.Errorf("trace log missing deliver line:\n%s", trace.String())
	}
	// The metrics registry agrees with the event stream.
	if snap := net.Metrics().Snapshot(); snap["node.b.delivered_pkts"] != 1 {
		t.Errorf("registry delivered_pkts = %d", snap["node.b.delivered_pkts"])
	}
	// Node.Stats() is a snapshot of the same instruments.
	if b.Stats().DeliveredPkts != 1 {
		t.Errorf("Stats().DeliveredPkts = %d", b.Stats().DeliveredPkts)
	}
}

func TestNetworkWithSeed(t *testing.T) {
	// Seeded networks deliver traffic like the default constructor.
	run := func(net *planp.Network) int {
		built := build(t, net, pair())
		a, b := built.Nodes[0], built.Nodes[1]
		n := 0
		b.BindUDP(5, func(*planp.Packet) { n++ })
		a.Send(planp.NewUDP(a.Addr, b.Addr, 1, 5, nil))
		net.Run()
		return n
	}
	if got := run(planp.NewNetwork(planp.WithSeed(3))); got != 1 {
		t.Errorf("options constructor delivered %d", got)
	}
}

func TestRunOptions(t *testing.T) {
	net := planp.NewNetwork()
	fired := 0
	for i := 1; i <= 6; i++ {
		net.At(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	// Event budget: stops mid-queue without advancing to any deadline.
	if n := net.Run(planp.WithMaxEvents(2)); n != 2 || fired != 2 {
		t.Fatalf("WithMaxEvents(2) ran %d (fired %d)", n, fired)
	}
	if net.Now() != 2*time.Millisecond {
		t.Errorf("now = %v after budget stop", net.Now())
	}
	// Deadline: runs events through 4ms and pins the clock there.
	if n := net.Run(planp.WithDeadline(4 * time.Millisecond)); n != 2 || fired != 4 {
		t.Fatalf("WithDeadline ran %d (fired %d)", n, fired)
	}
	// Duration: relative to the clock at Run time.
	if n := net.Run(planp.WithDuration(time.Millisecond)); n != 1 || fired != 5 {
		t.Fatalf("WithDuration ran %d (fired %d)", n, fired)
	}
	if net.Now() != 5*time.Millisecond {
		t.Errorf("now = %v after WithDuration(1ms)", net.Now())
	}
	// Combined: deadline far out, budget binds first.
	if n := net.Run(planp.WithDeadline(time.Second), planp.WithMaxEvents(1)); n != 1 || fired != 6 {
		t.Fatalf("combined options ran %d (fired %d)", n, fired)
	}
	// Unbounded drain of an empty queue still advances nothing.
	if n := net.Run(); n != 0 {
		t.Errorf("drain ran %d", n)
	}
}

// TestBuiltRouterFollowsTheBuilderRule: a router built through the
// façade gets a host route to each node it can reach and no default
// route, so a packet for an address outside the topology is a no-route
// drop at the router.
func TestBuiltRouterFollowsTheBuilderRule(t *testing.T) {
	var drops []planp.Event
	net := planp.NewNetwork(planp.WithObserver(planp.ObserverFunc(func(ev planp.Event) {
		if ev.Kind == planp.EventDrop {
			drops = append(drops, ev)
		}
	})))
	b := build(t, net, routerBetween("client", "router", "server"))
	client, router, server := b.Nodes[0], b.Nodes[1], b.Nodes[2]

	if got, want := router.Route(client.Addr), b.Iface("router", "client"); got != want {
		t.Errorf("router's route to client = %v, want %v", got, want)
	}
	if got, want := router.Route(server.Addr), b.Iface("router", "server"); got != want {
		t.Errorf("router's route to server = %v, want %v", got, want)
	}
	if ifc := router.Route(planp.MustAddr("10.9.9.9")); ifc != nil {
		t.Errorf("router has a default route %v", ifc)
	}

	// From the server, so that a default route onto the router's first
	// link would forward the packet to the client.
	server.Send(planp.NewUDP(server.Addr, planp.MustAddr("10.9.9.9"), 1000, 7, []byte("lost")))
	net.Run()
	if len(drops) != 1 || drops[0].Node != "router" || drops[0].Detail != "no-route" {
		t.Fatalf("drops = %v, want one no-route drop at router", drops)
	}
	if got := router.Stats().DroppedPkts; got != 1 {
		t.Errorf("router DroppedPkts = %d, want 1", got)
	}
}

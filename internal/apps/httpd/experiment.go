// The figure-8 experiment: throughput vs offered load for the four
// cluster configurations the paper compares.
package httpd

import (
	"fmt"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// Variant selects one of figure 8's four configurations.
type Variant int

// Figure-8 configurations (letters as in the paper's figure).
const (
	VariantDisjoint Variant = iota // (a) two servers, disjoint client sets
	VariantNativeGW                // (b) built-in gateway + two servers
	VariantASPGW                   // (c) ASP gateway + two servers
	VariantSingle                  // (d) one server, no balancing
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantDisjoint:
		return "2-servers-disjoint"
	case VariantNativeGW:
		return "native-gateway"
	case VariantASPGW:
		return "asp-gateway"
	default:
		return "single-server"
	}
}

// Testbed is the §3.2 cluster: two client hosts on a client LAN, the
// gateway machine routing to the server LAN, and two servers.
type Testbed struct {
	Sim     *netsim.Simulator
	Clients [2]*netsim.Node
	Gateway *netsim.Node
	ServerA *Server
	ServerB *Server
	GwRT    *planprt.Runtime // set for VariantASPGW

	ClientLAN *netsim.Segment
	ServerLAN *netsim.Segment
	// Net is Cluster as built; the chaos experiments wire their engine
	// from it.
	Net *netsim.Built
}

// Cluster is the §3.2 network: the two clients on the client LAN, the
// gateway on both LANs, and the two servers on the server LAN. The
// gateway sends traffic for the virtual address, which only its ASP
// rewrites, toward the servers.
var Cluster = substrate.Topology{
	Nodes: []substrate.NodeSpec{
		{Name: "client1", Addr: substrate.MustAddr("10.0.1.1")},
		{Name: "client2", Addr: substrate.MustAddr("10.0.1.2")},
		{Name: "gateway", Addr: substrate.MustAddr("10.0.0.1"), Forwarding: true},
		{Name: "serverA", Addr: Server0Addr},
		{Name: "serverB", Addr: Server1Addr},
	},
	Segments: []substrate.SegmentSpec{
		{Name: "clients", Bandwidth: 100_000_000, Members: []string{"client1", "client2", "gateway"}},
		{Name: "servers", Bandwidth: 100_000_000, Members: []string{"gateway", "serverA", "serverB"}},
	},
	Routes: []substrate.RouteSpec{{Node: "gateway", Dst: VirtualAddr, Via: "servers"}},
}

// Config parameterizes a run.
type Config struct {
	Variant Variant
	Engine  planprt.EngineKind // ASP gateway engine (default jit)
	Server  ServerConfig       // the servers' service model (zero: Apache)
	// ServerB overrides server B's configuration (heterogeneous
	// clusters for the policy ablation); nil copies Server.
	ServerB *ServerConfig
	// GatewaySource overrides the ASP source for VariantASPGW
	// (policy ablation); empty uses asp.HTTPGateway.
	GatewaySource string
	Seed          int64
}

// NewTestbed builds Cluster on the simulator and installs a variant.
func NewTestbed(cfg Config) (*Testbed, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Engine == "" {
		cfg.Engine = planprt.EngineJIT
	}
	if cfg.Server == (ServerConfig{}) {
		cfg.Server = Apache
	}
	sim := netsim.New(netsim.WithSeed(cfg.Seed))
	b, err := netsim.Build(sim, &Cluster)
	if err != nil {
		return nil, err
	}
	c1, c2, gw, sa, sb := b.Nodes[0], b.Nodes[1], b.Nodes[2], b.Nodes[3], b.Nodes[4]

	serverBCfg := cfg.Server
	if cfg.ServerB != nil {
		serverBCfg = *cfg.ServerB
	}
	tb := &Testbed{
		Sim:       sim,
		Clients:   [2]*netsim.Node{c1, c2},
		Gateway:   gw,
		ServerA:   NewServer(sa, cfg.Server),
		ServerB:   NewServer(sb, serverBCfg),
		ClientLAN: b.Segments[0],
		ServerLAN: b.Segments[1],
		Net:       b,
	}

	switch cfg.Variant {
	case VariantASPGW:
		src := cfg.GatewaySource
		if src == "" {
			src = asp.HTTPGateway
		}
		gw.PerPacketCPU = EngineCPUFactor(string(cfg.Engine))
		rt, err := planprt.Download(gw, src, planprt.Config{
			Engine: cfg.Engine,
			Verify: planprt.VerifySingleNode,
		})
		if err != nil {
			return nil, fmt.Errorf("httpd: gateway download: %w", err)
		}
		tb.GwRT = rt
	case VariantNativeGW:
		gw.PerPacketCPU = GatewayCPU
		InstallNativeGateway(gw)
	}
	return tb, nil
}

// Point is one measurement of the figure-8 sweep.
type Point struct {
	Variant    Variant
	OfferedRPS float64
	ServedRPS  float64
	MeanLat    time.Duration
}

// RunPoint measures served throughput at one offered load.
func RunPoint(cfg Config, offeredRPS float64, dur, warmup time.Duration) (*Point, error) {
	tb, err := NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	tr1 := NewTrace(TraceConfig{Accesses: 20000, Documents: 2000, ZipfS: 1.2, MeanSize: 6000, Seed: cfg.Seed})
	tr2 := NewTrace(TraceConfig{Accesses: 20000, Documents: 2000, ZipfS: 1.2, MeanSize: 6000, Seed: cfg.Seed + 1})

	targets := [2]netsim.Addr{VirtualAddr, VirtualAddr}
	switch cfg.Variant {
	case VariantDisjoint:
		targets = [2]netsim.Addr{Server0Addr, Server1Addr}
	case VariantSingle:
		targets = [2]netsim.Addr{Server0Addr, Server0Addr}
	}
	clients := []*Client{
		NewClient(tb.Clients[0], targets[0], offeredRPS/2, tr1),
		NewClient(tb.Clients[1], targets[1], offeredRPS/2, tr2),
	}
	for _, c := range clients {
		c.Start(dur, warmup)
	}
	tb.Sim.RunUntil(dur + 2*time.Second) // drain in-flight responses

	var completed int64
	var lat time.Duration
	var latN int64
	for _, c := range clients {
		completed += c.WarmedCompleted
		lat += c.Latency
		latN += c.Completed
	}
	p := &Point{
		Variant:    cfg.Variant,
		OfferedRPS: offeredRPS,
		ServedRPS:  float64(completed) / (dur - warmup).Seconds(),
	}
	if latN > 0 {
		p.MeanLat = lat / time.Duration(latN)
	}
	return p, nil
}

// Saturation measures a variant's plateau throughput by driving it well
// past capacity.
func Saturation(cfg Config, dur time.Duration) (float64, error) {
	pt, err := RunPoint(cfg, 1200, dur, dur/4)
	if err != nil {
		return 0, err
	}
	return pt.ServedRPS, nil
}

// DefaultSweep is the offered-load axis used for figure 8.
var DefaultSweep = []float64{50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700}

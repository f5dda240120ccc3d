// Package city is the sharded-scheduler scale scenario: a metropolitan
// deployment combining the paper's two headline applications at a size
// the original testbed could never reach — R regional clusters, each
// running the §3.2 ASP load-balancing gateway in front of two servers
// and a §3.1-style audio multicast tree over its access network, tied
// together by an inter-region backbone ring.
//
// Each region is one island: a core router, the gateway (running the
// HTTP-gateway ASP templated with the region's addresses), two
// physical servers, E edge routers in a star around the core, and one
// aggregate client host per edge standing in for ClientsPerEdge modeled
// clients (each client sends one request per second, so an edge host
// offers ClientsPerEdge requests/s). The ring links between cores are
// the shard boundaries; their propagation delay is the PDES lookahead.
//
// Every output is an order-independent counter aggregated per region,
// so the scenario is byte-identical at any shard count (the in-tree
// invariance test runs it at 1 and 4 shards and diffs the output).
package city

import (
	"fmt"
	"strings"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/planprt"
)

// Config sizes the city.
type Config struct {
	Regions        int           // regional clusters on the backbone ring (>= 2 to shard)
	EdgesPerRegion int           // edge routers per region
	ClientsPerEdge int           // modeled clients aggregated behind each edge
	Duration       time.Duration // virtual time to simulate
	Shards         int           // requested event-loop shards (capped at Regions)
	Seed           int64

	// CrossEvery makes every Nth edge address its requests to the NEXT
	// region's gateway instead of the local one (backbone traffic that
	// actually crosses shard boundaries). 0 disables cross traffic.
	CrossEvery int
	// AudioFanout is how many of a region's edges join the region's
	// audio multicast tree.
	AudioFanout int
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.AudioFanout > c.EdgesPerRegion {
		c.AudioFanout = c.EdgesPerRegion
	}
}

// Presets. Tiny keeps unit tests fast; CI is the shard-invariance diff
// run in continuous integration; Full is the 10k-router, ~1M-client
// configuration `planpbench -workload sim_city` runs.
var (
	Tiny = Config{Regions: 2, EdgesPerRegion: 6, ClientsPerEdge: 10,
		Duration: 50 * time.Millisecond, CrossEvery: 3, AudioFanout: 4}
	CI = Config{Regions: 4, EdgesPerRegion: 40, ClientsPerEdge: 25,
		Duration: 100 * time.Millisecond, CrossEvery: 8, AudioFanout: 8}
	Full = Config{Regions: 16, EdgesPerRegion: 640, ClientsPerEdge: 100,
		Duration: 200 * time.Millisecond, CrossEvery: 8, AudioFanout: 8}
)

// Result is one city run's outcome.
type Result struct {
	Output  string // deterministic per-region counter report
	Events  int    // simulator events processed
	Packets int64  // packets put on a wire (sent + forwarded)
	Nodes   int    // nodes in the topology
	Clients int    // modeled clients (EdgesPerRegion * ClientsPerEdge * Regions)
	Shards  int    // effective shard count

	// netsim's CriticalPath reading (zero on one shard):
	// Events/CriticalEvents bounds the speed-up on any number of cores.
	Windows, CriticalEvents int
}

// region holds one cluster's construction-time handles.
type region struct {
	core, gw  *netsim.Node
	servers   [2]*netsim.Node
	edges     []*netsim.Node
	clients   []*netsim.Node
	responses int64 // responses delivered at this region's client hosts
	audio     int64 // audio frames delivered at this region's client hosts
	requests  int64 // requests originated by this region's client hosts
}

// Run builds the city and simulates cfg.Duration of it.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	sim := netsim.New(netsim.WithSeed(cfg.Seed), netsim.WithShards(cfg.Shards))
	regions := make([]*region, cfg.Regions)

	access := netsim.LinkConfig{Bandwidth: 100_000_000}   // edge <-> client
	feeder := netsim.LinkConfig{Bandwidth: 1_000_000_000} // core <-> edge/gateway
	lan := netsim.LinkConfig{Bandwidth: 1_000_000_000}    // gateway <-> server

	for r := 0; r < cfg.Regions; r++ {
		base := netsim.Addr(10<<24 | r<<16)
		reg := &region{}
		regions[r] = reg
		reg.core = netsim.NewNode(sim, fmt.Sprintf("core%d", r), base|1)
		reg.core.Forwarding = true
		reg.gw = netsim.NewNode(sim, fmt.Sprintf("gw%d", r), base|2)
		reg.gw.Forwarding = true
		reg.servers[0] = netsim.NewNode(sim, fmt.Sprintf("srvA%d", r), base|81)
		reg.servers[1] = netsim.NewNode(sim, fmt.Sprintf("srvB%d", r), base|109)

		// Gateway hangs off the core; servers hang off the gateway.
		gl := netsim.Connect(sim, reg.core, reg.gw, feeder)
		la := netsim.Connect(sim, reg.gw, reg.servers[0], lan)
		lb := netsim.Connect(sim, reg.gw, reg.servers[1], lan)
		coreToGw, gwToCore := gl.Ifaces()[0], gl.Ifaces()[1]
		reg.gw.AddRoute(reg.servers[0].Addr, la.Ifaces()[0])
		reg.gw.AddRoute(reg.servers[1].Addr, lb.Ifaces()[0])
		reg.gw.AddRoute(base|100, la.Ifaces()[0]) // unrewritten virtual traffic heads clusterward
		reg.gw.SetDefaultRoute(gwToCore)
		reg.servers[0].SetDefaultRoute(la.Ifaces()[1])
		reg.servers[1].SetDefaultRoute(lb.Ifaces()[1])
		reg.core.AddRoute(base|100, coreToGw)
		reg.core.AddRoute(reg.servers[0].Addr, coreToGw)
		reg.core.AddRoute(reg.servers[1].Addr, coreToGw)

		// The §3.2 gateway ASP, templated with this region's virtual and
		// physical server addresses.
		src := strings.NewReplacer(
			"10.0.0.100", (base | 100).String(),
			"10.0.0.81", (base | 81).String(),
			"10.0.0.109", (base | 109).String(),
		).Replace(asp.HTTPGateway)
		reg.gw.PerPacketCPU = httpd.GatewayCPU
		if _, err := planprt.Download(reg.gw, src, planprt.Config{Verify: planprt.VerifySingleNode}); err != nil {
			return nil, fmt.Errorf("city: region %d gateway download: %w", r, err)
		}

		// The §3.2 servers, answering each request on arrival; the gateway
		// ASP rewrites the source back to the virtual address.
		for _, srv := range reg.servers {
			httpd.NewServer(srv, httpd.ServerConfig{})
		}

		// Access star: edge routers around the core, one aggregate client
		// host behind each edge.
		group := netsim.Addr(224<<24 | r<<16 | 1)
		for e := 0; e < cfg.EdgesPerRegion; e++ {
			edge := netsim.NewNode(sim, fmt.Sprintf("edge%d.%d", r, e), base|netsim.Addr(0x100+e))
			edge.Forwarding = true
			ch := netsim.NewNode(sim, fmt.Sprintf("clients%d.%d", r, e), base|netsim.Addr(0x2000+e))
			el := netsim.Connect(sim, reg.core, edge, feeder)
			cl := netsim.Connect(sim, edge, ch, access)
			reg.core.AddRoute(ch.Addr, el.Ifaces()[0])
			edge.SetDefaultRoute(el.Ifaces()[1])
			edge.AddRoute(ch.Addr, cl.Ifaces()[0])
			ch.SetDefaultRoute(cl.Ifaces()[1])
			reg.edges = append(reg.edges, edge)
			reg.clients = append(reg.clients, ch)

			// Responses come back TCP to the request's (cycling) source
			// port, so the client host counts them in a raw binding; audio
			// frames have their own port.
			host, rg := ch, reg
			host.BindRaw(func(pkt *netsim.Packet) {
				if pkt.TCP != nil {
					rg.responses++
				}
			})
			host.BindUDP(5004, func(*netsim.Packet) { rg.audio++ })
			if e < cfg.AudioFanout {
				reg.core.AddMulticastRoute(group, el.Ifaces()[0])
				edge.AddMulticastRoute(group, cl.Ifaces()[0])
				host.JoinGroup(group)
			}
		}
	}

	// Backbone ring: the shard boundaries. Unknown destinations route
	// clockwise, so cross-region responses circle the ring home. Delays
	// are staggered per hop so cross-shard arrivals never tie with local
	// events at the same nanosecond.
	for r := 0; r < cfg.Regions; r++ {
		next := (r + 1) % cfg.Regions
		rl := netsim.Connect(sim, regions[r].core, regions[next].core, netsim.LinkConfig{
			Bandwidth:     10_000_000_000,
			Delay:         5*time.Millisecond + time.Duration(r)*1013*time.Nanosecond,
			ShardBoundary: true,
		})
		regions[r].core.SetDefaultRoute(rl.Ifaces()[0])
	}

	// Workload. Each client host offers ClientsPerEdge requests per
	// second (its modeled clients at one request/s each), phase-staggered
	// with prime offsets, each asking for a one-packet 1 200-byte
	// response; every CrossEvery-th edge addresses the next region's
	// virtual server. The region core multicasts one 160-byte
	// audio frame every 20ms (a G.711 packet) down the region's tree.
	for r, reg := range regions {
		period := time.Second / time.Duration(cfg.ClientsPerEdge)
		for e, ch := range reg.clients {
			target := netsim.Addr(10<<24 | r<<16 | 100)
			if cfg.CrossEvery > 0 && e%cfg.CrossEvery == cfg.CrossEvery-1 {
				target = netsim.Addr(10<<24 | ((r+1)%cfg.Regions)<<16 | 100)
			}
			env := ch.Env()
			host, rg, dst := ch, reg, target
			phase := (time.Duration(r*104729+e*7919+13) * time.Nanosecond) % period
			i := 0
			var tick func()
			tick = func() {
				rg.requests++
				host.Send(httpd.NewRequest(host.Addr, dst, uint16(1024+i%60000), 1200, 64+(i%7)*8).Own())
				i++
				if env.Now()+period < cfg.Duration {
					env.After(period, tick)
				}
			}
			env.After(phase, tick)
		}

		core := reg.core
		group := netsim.Addr(224<<24 | r<<16 | 1)
		env := core.Env()
		frame := make([]byte, 160)
		audioPhase := time.Duration(r*7919+11) * time.Nanosecond
		var beat func()
		beat = func() {
			core.Send(netsim.NewUDP(core.Addr, group, 5004, 5004, frame))
			if env.Now()+20*time.Millisecond < cfg.Duration {
				env.After(20*time.Millisecond, beat)
			}
		}
		env.After(audioPhase, beat)
	}

	events := sim.RunUntil(cfg.Duration)

	res := &Result{
		Events:  events,
		Nodes:   cfg.Regions * (4 + 2*cfg.EdgesPerRegion),
		Clients: cfg.Regions * cfg.EdgesPerRegion * cfg.ClientsPerEdge,
		Shards:  sim.ShardCount(),
	}
	res.Windows, _, res.CriticalEvents = sim.CriticalPath()
	var b strings.Builder
	var totReq, totResp, totAudio, totDrop, totServed int64
	for r, reg := range regions {
		var drops int64
		nodes := append([]*netsim.Node{reg.core, reg.gw, reg.servers[0], reg.servers[1]}, reg.edges...)
		nodes = append(nodes, reg.clients...)
		for _, n := range nodes {
			st := n.Stats()
			drops += st.DroppedPkts
			res.Packets += st.SentPkts + st.ForwardedPkts
		}
		servedA := reg.servers[0].Stats().DeliveredPkts
		servedB := reg.servers[1].Stats().DeliveredPkts
		fmt.Fprintf(&b, "city.region%d.requests %d\n", r, reg.requests)
		fmt.Fprintf(&b, "city.region%d.responses %d\n", r, reg.responses)
		fmt.Fprintf(&b, "city.region%d.served_a %d\n", r, servedA)
		fmt.Fprintf(&b, "city.region%d.served_b %d\n", r, servedB)
		fmt.Fprintf(&b, "city.region%d.audio %d\n", r, reg.audio)
		fmt.Fprintf(&b, "city.region%d.drops %d\n", r, drops)
		totReq += reg.requests
		totResp += reg.responses
		totAudio += reg.audio
		totDrop += drops
		totServed += servedA + servedB
	}
	fmt.Fprintf(&b, "city.total.requests %d\n", totReq)
	fmt.Fprintf(&b, "city.total.responses %d\n", totResp)
	fmt.Fprintf(&b, "city.total.served %d\n", totServed)
	fmt.Fprintf(&b, "city.total.audio %d\n", totAudio)
	fmt.Fprintf(&b, "city.total.drops %d\n", totDrop)
	fmt.Fprintf(&b, "city.events %d\n", events)
	res.Output = b.String()
	return res, nil
}

// The §3.3 experiment: N viewers of the same stream on one segment,
// with and without the monitor/capture ASPs. The headline measurement
// is server load (connections, frames sent) as a function of the number
// of viewers: flat at 1x with the ASPs, linear without.
package mpeg

import (
	"fmt"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// Testbed is the §3.3 network: a remote video server behind a router,
// and a shared client segment hosting the monitor and the viewers.
type Testbed struct {
	Sim     *netsim.Simulator
	Server  *Server
	Monitor *netsim.Node
	Clients []*Client
	Segment *netsim.Segment

	MonitorRT *planprt.Runtime
	ClientRTs []*planprt.Runtime
}

// Options configure a run.
type Options struct {
	Viewers int
	UseASPs bool
	Engine  planprt.EngineKind
	Seed    int64
	// Stagger is the delay between successive viewers starting.
	Stagger time.Duration
}

// Topology is the §3.3 network for a number of viewers: the video
// server's uplink to the router, and the client LAN the router shares
// with the monitor and the viewers, which send everything to the
// router. With capture, the monitor and the viewers attach
// promiscuously, for the monitor and capture ASPs.
func Topology(viewers int, capture bool) *substrate.Topology {
	t := &substrate.Topology{
		Nodes: []substrate.NodeSpec{
			{Name: "videoserver", Addr: substrate.MustAddr("10.9.0.1")},
			{Name: "router", Addr: substrate.MustAddr("10.9.0.254"), Forwarding: true},
			{Name: "monitor", Addr: substrate.MustAddr("10.8.0.2")},
		},
		Links:    []substrate.LinkSpec{{A: "videoserver", B: "router", Bandwidth: 100_000_000}},
		Segments: []substrate.SegmentSpec{{Name: "client-lan", Bandwidth: 10_000_000, Members: []string{"router", "monitor"}}},
		Routes:   []substrate.RouteSpec{{Node: "router", Dst: 0, Via: "client-lan"}},
	}
	lan := &t.Segments[0]
	for i := 0; i < viewers; i++ {
		name := fmt.Sprintf("viewer%d", i+1)
		t.Nodes = append(t.Nodes, substrate.NodeSpec{Name: name, Addr: substrate.MustAddr(fmt.Sprintf("10.8.0.%d", 10+i))})
		lan.Members = append(lan.Members, name)
	}
	if capture {
		lan.Promisc = lan.Members[1:]
	}
	return t
}

// NewTestbed builds Topology on the simulator and optionally deploys
// the ASPs.
func NewTestbed(opts Options) (*Testbed, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Stagger == 0 {
		opts.Stagger = time.Second
	}
	sim := netsim.New(netsim.WithSeed(opts.Seed))
	b, err := netsim.Build(sim, Topology(opts.Viewers, opts.UseASPs))
	if err != nil {
		return nil, err
	}
	srvNode, monitor := b.Nodes[0], b.Nodes[2]
	tb := &Testbed{Sim: sim, Server: NewServer(srvNode), Monitor: monitor, Segment: b.Segments[0]}

	if opts.UseASPs {
		rt, err := planprt.Download(monitor, asp.MPEGMonitor, planprt.Config{Engine: opts.Engine})
		if err != nil {
			return nil, fmt.Errorf("mpeg: monitor download: %w", err)
		}
		tb.MonitorRT = rt
	}

	for _, node := range b.Nodes[3:] {
		client := NewClient(node, srvNode.Addr, monitor.Addr, 1, opts.UseASPs)
		if opts.UseASPs {
			rt, err := planprt.Download(node, asp.MPEGClient, planprt.Config{Engine: opts.Engine})
			if err != nil {
				return nil, fmt.Errorf("mpeg: client download: %w", err)
			}
			tb.ClientRTs = append(tb.ClientRTs, rt)
		}
		tb.Clients = append(tb.Clients, client)
	}
	return tb, nil
}

// Result summarizes one run.
type Result struct {
	Viewers           int
	UseASPs           bool
	ServerConnections int64
	ServerFrames      int64
	ServerBytes       int64
	SegmentBits       int64 // total bits transmitted on the client segment
	ViewerFrames      []int64
}

// Run starts viewers staggered, plays for dur, and reports loads.
func Run(opts Options, dur time.Duration) (*Result, error) {
	if opts.Stagger == 0 {
		opts.Stagger = time.Second
	}
	tb, err := NewTestbed(opts)
	if err != nil {
		return nil, err
	}
	for i, c := range tb.Clients {
		client := c
		tb.Sim.At(time.Duration(i)*opts.Stagger+opts.Stagger, client.Start)
	}
	tb.Sim.RunUntil(dur)

	res := &Result{
		Viewers:           opts.Viewers,
		UseASPs:           opts.UseASPs,
		ServerConnections: tb.Server.Connections,
		ServerFrames:      tb.Server.FramesSent,
		ServerBytes:       tb.Server.BytesSent,
	}
	for _, c := range tb.Clients {
		res.ViewerFrames = append(res.ViewerFrames, c.Frames)
	}
	return res, nil
}

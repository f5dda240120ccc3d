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

// NewTestbed builds the topology and optionally deploys the ASPs.
func NewTestbed(opts Options) (*Testbed, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Stagger == 0 {
		opts.Stagger = time.Second
	}
	sim := netsim.New(netsim.WithSeed(opts.Seed))
	srvNode := netsim.NewNode(sim, "videoserver", netsim.MustAddr("10.9.0.1"))
	router := netsim.NewNode(sim, "router", netsim.MustAddr("10.9.0.254"))
	router.Forwarding = true
	monitor := netsim.NewNode(sim, "monitor", netsim.MustAddr("10.8.0.2"))

	up := netsim.Connect(sim, srvNode, router, netsim.LinkConfig{Bandwidth: 100_000_000})
	seg := netsim.NewSegment(sim, "client-lan", netsim.LinkConfig{Bandwidth: 10_000_000})
	rSeg := seg.Attach(router)
	mIf := seg.Attach(monitor)

	srvNode.SetDefaultRoute(up.Ifaces()[0])
	router.AddRoute(srvNode.Addr, up.Ifaces()[1])
	router.SetDefaultRoute(rSeg)
	monitor.SetDefaultRoute(mIf)

	tb := &Testbed{Sim: sim, Server: NewServer(srvNode), Monitor: monitor, Segment: seg}

	if opts.UseASPs {
		mIf.Promisc = true
		rt, err := planprt.Download(monitor, asp.MPEGMonitor, planprt.Config{Engine: opts.Engine})
		if err != nil {
			return nil, fmt.Errorf("mpeg: monitor download: %w", err)
		}
		tb.MonitorRT = rt
	}

	for i := 0; i < opts.Viewers; i++ {
		node := netsim.NewNode(sim, fmt.Sprintf("viewer%d", i+1), netsim.MustAddr(fmt.Sprintf("10.8.0.%d", 10+i)))
		ifc := seg.Attach(node)
		node.SetDefaultRoute(ifc)
		client := NewClient(node, srvNode.Addr, monitor.Addr, 1, opts.UseASPs)
		if opts.UseASPs {
			ifc.Promisc = true
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

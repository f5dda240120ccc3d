// The §3.1 experiments on netsim: the figure-5 topology, the figure-6
// stepped-load bandwidth trace, the figure-7 silent-period comparison,
// and the adaptation-locus run. This file is the package's one netsim
// assembler: the figure-5 network (group membership and multicast
// routes included) is declared here as Figure5, and the taps that watch
// packets before the client ASP live here, not in the applications.
package audio

import (
	"fmt"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/netsim/loadgen"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// Adaptation selects how the router treats audio traffic.
type Adaptation int

// Adaptation modes.
const (
	AdaptNone   Adaptation = iota // plain IP forwarding
	AdaptASP                      // PLAN-P protocol download
	AdaptNative                   // hand-written Go baseline ("built-in C")
)

// String names the mode.
func (a Adaptation) String() string {
	switch a {
	case AdaptASP:
		return "asp"
	case AdaptNative:
		return "native"
	default:
		return "none"
	}
}

// Testbed is the figure-5 network: an audio source behind a router, and
// a shared client segment carrying both the audio client and the load
// generator.
type Testbed struct {
	Sim        *netsim.Simulator
	Source     *Source
	Router     *netsim.Node
	Client     *Client
	ClientNode *netsim.Node // the node Client is bound on
	LoadGen    *netsim.Node
	Segment    *netsim.Segment
	Group      netsim.Addr
	// Net is Figure5 as built; the chaos experiments wire their engine
	// from it.
	Net *netsim.Built

	RouterRT *planprt.Runtime // nil unless AdaptASP
	ClientRT *planprt.Runtime
	Wire     *obs.Series // on-wire audio data rate at the client

	// WireFormats counts audio packets by on-wire format tag as they
	// reach the client (before any restoration).
	WireFormats [4]int
}

// SegmentBandwidth is the client segment capacity (10 Mb/s Ethernet, as
// in the paper).
const SegmentBandwidth = 10_000_000

// group is the multicast group the figure-5 source sends to.
var group = substrate.MustAddr("224.5.5.5")

// Figure5 is the figure-5 network: the source's uplink to the router,
// and the client LAN the router shares with the client, the load
// generator and its sink. The router sends the audio group and any
// address it has no host route for onto the LAN, where the client has
// joined the group.
var Figure5 = substrate.Topology{
	Nodes: []substrate.NodeSpec{
		{Name: "source", Addr: substrate.MustAddr("10.1.0.1")},
		{Name: "router", Addr: substrate.MustAddr("10.1.0.254"), Forwarding: true},
		{Name: "client", Addr: substrate.MustAddr("10.2.0.1")},
		{Name: "loadgen", Addr: substrate.MustAddr("10.2.0.2")},
		{Name: "sink", Addr: substrate.MustAddr("10.2.0.3")},
	},
	Links: []substrate.LinkSpec{{A: "source", B: "router", Bandwidth: 100_000_000}},
	Segments: []substrate.SegmentSpec{
		{Name: "client-lan", Bandwidth: SegmentBandwidth, Members: []string{"router", "client", "loadgen", "sink"}},
	},
	Routes:  []substrate.RouteSpec{{Node: "router", Dst: 0, Via: "client-lan"}},
	Mroutes: []substrate.RouteSpec{{Node: "router", Dst: group, Via: "client-lan"}},
	Joins:   []substrate.JoinSpec{{Node: "client", Group: group}},
}

// Options configure a run: the router's adaptation and the seed. ASP
// downloads run on the default engine, the JIT.
type Options struct {
	Adaptation Adaptation
	Seed       int64
}

// NewTestbed builds Figure5 on the simulator and installs the selected
// adaptation.
func NewTestbed(opts Options) (*Testbed, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	sim := netsim.New(netsim.WithSeed(opts.Seed))
	b, err := netsim.Build(sim, &Figure5)
	if err != nil {
		return nil, err
	}
	src, router, client, gen := b.Nodes[0], b.Nodes[1], b.Nodes[2], b.Nodes[3]

	tb := &Testbed{
		Sim:        sim,
		Source:     &Source{Node: src, Dst: group},
		Router:     router,
		ClientNode: client,
		LoadGen:    gen,
		Segment:    b.Segments[0],
		Group:      group,
		Net:        b,
	}
	tb.Wire = MeterAudio(client)
	client.Tap(func(pkt *netsim.Packet) {
		if pkt.UDP != nil && pkt.UDP.DstPort == Port && len(pkt.Payload) > 0 {
			if f := int(pkt.Payload[0]); f >= 1 && f <= 3 {
				tb.WireFormats[f]++
			}
		}
	})
	tb.Client = NewClient(client)

	switch opts.Adaptation {
	case AdaptASP:
		rrt, err := planprt.Download(router, asp.AudioRouter, planprt.Config{})
		if err != nil {
			return nil, fmt.Errorf("audio: router download: %w", err)
		}
		crt, err := planprt.Download(client, asp.AudioClient, planprt.Config{})
		if err != nil {
			return nil, fmt.Errorf("audio: client download: %w", err)
		}
		tb.RouterRT, tb.ClientRT = rrt, crt
	case AdaptNative:
		InstallNative(router)
		crt, err := planprt.Download(client, asp.AudioClient, planprt.Config{})
		if err != nil {
			return nil, fmt.Errorf("audio: client download: %w", err)
		}
		tb.ClientRT = crt
	}
	return tb, nil
}

// SinkAddr is where background load is addressed.
func (tb *Testbed) SinkAddr() netsim.Addr { return netsim.MustAddr("10.2.0.3") }

// StartPoissonLoad offers bps of Poisson background traffic (1 000-byte
// datagrams) from the load generator to the sink until end — figure 7's
// load model.
func (tb *Testbed) StartPoissonLoad(bps int64, end time.Duration) {
	payload := make([]byte, 1000) // shared: transmitted payloads are immutable
	wire := int64(len(payload) + substrate.IPHeaderLen + substrate.UDPHeaderLen)
	p := &loadgen.Poisson{Rate: float64(bps) / float64(wire*8), Emit: func() {
		tb.LoadGen.Send(netsim.NewUDP(tb.LoadGen.Addr, tb.SinkAddr(), 40000, 40000, payload).Own())
	}}
	p.Start(tb.Sim, 0, end)
}

// WireSeriesName is the registry name of the figure-6 series MeterAudio
// records (the on-wire audio data rate at the client).
const WireSeriesName = "audio-wire-bps"

// MeterAudio installs a tap on node measuring the on-wire audio data
// rate as packets arrive, BEFORE any client ASP restores them — the
// y-axis of figure 6 (176/88/44 kb/s per quality level), windowed per
// second. The series is registered in the simulation's metrics registry
// under WireSeriesName, so any reader holding the registry sees it.
func MeterAudio(node *netsim.Node) *obs.Series {
	const window = time.Second
	series := node.Sim().Metrics().Series(WireSeriesName)
	var bits int64 // audio payload bits in the open window
	var windowStart time.Duration
	node.Tap(func(pkt *netsim.Packet) {
		if pkt.UDP == nil || pkt.UDP.DstPort != Port {
			return
		}
		now := node.Sim().Now()
		for now-windowStart >= window {
			series.Add(windowStart+window, float64(bits)/window.Seconds())
			windowStart += window
			bits = 0
		}
		bits += int64(len(pkt.Payload)-prims.AudioHeaderLen) * 8
	})
	return series
}

// Figure6Result is the stepped-load run's outcome.
type Figure6Result struct {
	Series *obs.Series // audio data rate per second (b/s)
	// Phase means in kb/s over the stable tail of each phase.
	QuietKbps, LargeKbps, MediumKbps, SmallKbps float64
	// MediumOscillates reports whether the middle phase moved between
	// quality levels, as in the paper's figure 6 at t in [220,340).
	MediumOscillates bool
}

// Figure-6 load schedule (phase starts, as in the paper's time axis).
const (
	F6Quiet  = 0 * time.Second
	F6Large  = 100 * time.Second
	F6Medium = 220 * time.Second
	F6Small  = 340 * time.Second
	F6End    = 460 * time.Second
)

// Figure-6 background loads, chosen relative to the ASP's thresholds on
// a 10 Mb/s segment: large pins the load above the 8-bit threshold,
// medium sits at the 16-bit-mono boundary so quality oscillates, small
// sits in the 16-bit-mono band.
const (
	F6LargeBps  = 9_300_000
	F6MediumBps = 8_030_000
	F6SmallBps  = 5_500_000
)

// RunFigure6 replays the paper's stepped-load timeline and returns the
// measured audio bandwidth trace.
func (tb *Testbed) RunFigure6() *Figure6Result {
	gen := &loadgen.Generator{
		Node: tb.LoadGen, Dst: tb.SinkAddr(), DstPort: 40000,
		Steps: []loadgen.Step{
			{At: F6Quiet, Bps: 0},
			{At: F6Large, Bps: F6LargeBps},
			{At: F6Medium, Bps: F6MediumBps},
			{At: F6Small, Bps: F6SmallBps},
		},
	}
	gen.Start(tb.Sim, F6End)
	tb.Source.Start(F6End)

	// Snapshot the wire-format mix at the medium phase boundaries so
	// the oscillation between 8- and 16-bit mono is observable.
	var atMedium, atSmall [4]int
	tb.Sim.At(F6Medium+10*time.Second, func() { atMedium = tb.WireFormats })
	tb.Sim.At(F6Small, func() { atSmall = tb.WireFormats })

	tb.Sim.RunUntil(F6End)
	tb.Client.Finish(F6End)

	res := &Figure6Result{Series: tb.Wire}
	phaseMean := func(from, to time.Duration) float64 {
		// Skip the first 10 s of each phase so the meter and the
		// adaptation have settled.
		return tb.Wire.Mean(from+10*time.Second, to) / 1000
	}
	res.QuietKbps = phaseMean(F6Quiet, F6Large)
	res.LargeKbps = phaseMean(F6Large, F6Medium)
	res.MediumKbps = phaseMean(F6Medium, F6Small)
	res.SmallKbps = phaseMean(F6Small, F6End)
	// Oscillation: during the stable part of the medium phase, both
	// 8-bit and 16-bit mono packets crossed the wire.
	mono16 := atSmall[2] - atMedium[2]
	mono8 := atSmall[3] - atMedium[3]
	res.MediumOscillates = mono16 > 0 && mono8 > 0
	return res
}

// Figure7Row is one configuration of the silent-period comparison.
type Figure7Row struct {
	LoadBps       int64
	Adaptation    Adaptation
	SilentPeriods int // runs of lost packets — audible dropouts
	LostPackets   int
	Stalls        int // long stalls (no playable audio > 3 intervals)
	Received      int
	Unplayable    int
	SegDrops      int64
}

// Figure7Loads are the background load levels swept for figure 7,
// bracketing the segment capacity. The interesting band is where the
// load plus full-quality audio exceeds capacity but the load plus
// degraded audio fits — adaptation then eliminates loss entirely.
var Figure7Loads = []int64{0, 9_000_000, 9_700_000, 9_900_000, 10_100_000}

// RunFigure7 runs one (load, adaptation) cell for the given duration
// using Poisson background traffic. The adaptation under test, engine
// and seed come from opts.
func RunFigure7(loadBps int64, dur time.Duration, opts Options) (*Figure7Row, error) {
	tb, err := NewTestbed(opts)
	if err != nil {
		return nil, err
	}
	tb.StartPoissonLoad(loadBps, dur)
	tb.Source.Start(dur)
	tb.Sim.RunUntil(dur)
	tb.Client.Finish(dur)
	return &Figure7Row{
		LoadBps:       loadBps,
		Adaptation:    opts.Adaptation,
		SilentPeriods: tb.Client.SilentPeriods,
		LostPackets:   tb.Client.LostPackets,
		Stalls:        tb.Client.Gaps.Gaps(),
		Received:      tb.Client.Received(),
		Unplayable:    tb.Client.Unplayable,
		SegDrops:      tb.Segment.Dropped(),
	}, nil
}

// LocusResult compares adaptation reaction for one mechanism.
type LocusResult struct {
	Mechanism string
	// ReactionTime is the delay between the load step and the first
	// degraded packet observed at the client.
	ReactionTime time.Duration
	// GapsDuringTransition counts playback gaps in the 30 s after the
	// load step.
	GapsDuringTransition int
	// DropsDuringTransition counts segment drops in the same window.
	DropsDuringTransition int64
}

// RunLocus measures reaction to a heavy load step at stepAt for either
// the in-router ASP ("router") or end-to-end feedback ("feedback").
// opts.Adaptation is chosen by the mechanism and ignored if set;
// opts.Seed passes through to the testbed.
func RunLocus(mechanism string, opts Options) (*LocusResult, error) {
	const (
		stepAt = 30 * time.Second
		end    = 60 * time.Second
	)
	opts.Adaptation = AdaptNone
	if mechanism == "router" {
		opts.Adaptation = AdaptASP
	}
	tb, err := NewTestbed(opts)
	if err != nil {
		return nil, err
	}

	// Observe the first non-stereo packet at the client after the step.
	var firstDegraded time.Duration
	tb.Sim.At(0, func() {
		tb.ClientNode.Tap(func(pkt *netsim.Packet) {
			if firstDegraded != 0 || pkt.UDP == nil || pkt.UDP.DstPort != Port {
				return
			}
			if len(pkt.Payload) > 0 && pkt.Payload[0] != prims.AudioStereo16 && tb.Sim.Now() >= stepAt {
				firstDegraded = tb.Sim.Now()
			}
		})
	})

	gen := &loadgen.Generator{Node: tb.LoadGen, Dst: tb.SinkAddr(), DstPort: 40000,
		Steps: []loadgen.Step{{At: stepAt, Bps: 10_200_000}}}
	gen.Start(tb.Sim, end)

	var dropsAtStep int64
	tb.Sim.At(stepAt, func() { dropsAtStep = tb.Segment.Dropped() })

	if mechanism == "feedback" {
		// The feedback architecture still needs the client-side
		// restoration so the unmodified player accepts degraded
		// packets; only the adaptation locus moves to the end points.
		if _, err := planprt.Download(tb.ClientNode, asp.AudioClient, planprt.Config{}); err != nil {
			return nil, err
		}
		NewFeedbackSource(tb.Source)
		NewFeedbackClient(tb.Client, tb.Source.Node.Address(), end)
	}
	tb.Source.Start(end)
	tb.Sim.RunUntil(end)
	tb.Client.Finish(end)

	res := &LocusResult{Mechanism: mechanism}
	if firstDegraded > 0 {
		res.ReactionTime = firstDegraded - stepAt
	}
	res.GapsDuringTransition = tb.Client.Gaps.Gaps()
	res.DropsDuringTransition = tb.Segment.Dropped() - dropsAtStep
	return res, nil
}

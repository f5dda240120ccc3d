// End-to-end feedback adaptation: the comparison point §3.1 argues
// against. The client measures loss over a reporting interval and sends
// feedback to the source, which adjusts the quality it transmits at.
// Reaction time is bounded below by the feedback interval plus a
// round trip, and during that window the network stays congested —
// exactly the lag the in-router ASP avoids.
package audio

import (
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// FeedbackPort carries client loss reports back to the source.
const FeedbackPort = 5005

// FeedbackInterval is how often the client reports (a typical RTCP-ish
// period, far coarser than the router's 250 ms load window).
const FeedbackInterval = 2 * time.Second

// Loss thresholds for quality switching (percent of expected packets).
const (
	lossDegrade = 1 // lose more than this: step quality down
	lossUpgrade = 0 // perfectly clean interval: step quality up
)

// FeedbackSource wraps a Source with a quality knob driven by client
// reports. The source degrades the payload before transmission.
type FeedbackSource struct {
	*Source
	Quality int // prims.AudioStereo16 / AudioMono16 / AudioMono8

	Downgrades int
	Upgrades   int
}

// NewFeedbackSource installs the feedback listener on the source node.
func NewFeedbackSource(src *Source) *FeedbackSource {
	fs := &FeedbackSource{Source: src, Quality: prims.AudioStereo16}
	src.Node.BindUDP(FeedbackPort, fs.onReport)
	return fs
}

// StartAdaptive emits packets at the current quality until end.
func (fs *FeedbackSource) StartAdaptive(sim *netsim.Simulator, end time.Duration) {
	var tick func()
	tick = func() {
		if fs.stopped || sim.Now() >= end {
			return
		}
		payload := fs.nextPayload()
		switch fs.Quality {
		case prims.AudioMono16:
			payload = prims.DegradeToMono16(payload)
		case prims.AudioMono8:
			payload = prims.DegradeToMono8(payload)
		}
		fs.Node.Send(netsim.NewUDP(fs.Node.Addr, fs.Group, Port, Port, payload).Own())
		sim.After(PacketInterval, tick)
	}
	sim.After(PacketInterval, tick)
}

// onReport applies a client loss report.
func (fs *FeedbackSource) onReport(pkt *netsim.Packet) {
	if len(pkt.Payload) < 1 {
		return
	}
	lossPct := int(pkt.Payload[0])
	switch {
	case lossPct > lossDegrade && fs.Quality < prims.AudioMono8:
		fs.Quality++
		fs.Downgrades++
	case lossPct <= lossUpgrade && fs.Quality > prims.AudioStereo16:
		fs.Quality--
		fs.Upgrades++
	}
}

// FeedbackClient measures loss by sequence gaps and reports to the
// source on a timer.
type FeedbackClient struct {
	Node   *netsim.Node
	Source netsim.Addr

	expected uint32 // next expected sequence number
	received int
	lost     int
	stopped  bool
}

// NewFeedbackClient taps audio traffic on the client node and starts
// the reporting timer.
func NewFeedbackClient(node *netsim.Node, source netsim.Addr, end time.Duration) *FeedbackClient {
	fc := &FeedbackClient{Node: node, Source: source}
	node.Tap(func(pkt *netsim.Packet) {
		if pkt.UDP == nil || pkt.UDP.DstPort != Port || len(pkt.Payload) < prims.AudioHeaderLen {
			return
		}
		seq := uint32(pkt.Payload[1])<<24 | uint32(pkt.Payload[2])<<16 | uint32(pkt.Payload[3])<<8 | uint32(pkt.Payload[4])
		if fc.expected != 0 && seq > fc.expected {
			fc.lost += int(seq - fc.expected)
		}
		fc.expected = seq + 1
		fc.received++
	})
	sim := node.Sim()
	var report func()
	report = func() {
		if fc.stopped || sim.Now() >= end {
			return
		}
		fc.sendReport()
		sim.After(FeedbackInterval, report)
	}
	sim.After(FeedbackInterval, report)
	return fc
}

func (fc *FeedbackClient) sendReport() {
	total := fc.received + fc.lost
	pct := 0
	if total > 0 {
		pct = fc.lost * 100 / total
	}
	if pct > 255 {
		pct = 255
	}
	fc.received, fc.lost = 0, 0
	fc.Node.Send(netsim.NewUDP(fc.Node.Addr, fc.Source, FeedbackPort, FeedbackPort, []byte{byte(pct)}).Own())
}

// Stop halts reporting.
func (fc *FeedbackClient) Stop() { fc.stopped = true }

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
// opts.Adaptation is chosen by the mechanism and ignored if set; the
// remaining fields (Seed, Engine) pass through to the testbed.
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
		tb.Client.Node.Tap(func(pkt *netsim.Packet) {
			if firstDegraded != 0 || pkt.UDP == nil || pkt.UDP.DstPort != Port {
				return
			}
			if len(pkt.Payload) > 0 && pkt.Payload[0] != prims.AudioStereo16 && tb.Sim.Now() >= stepAt {
				firstDegraded = tb.Sim.Now()
			}
		})
	})

	gen := &FeedbackLoadStep{Node: tb.LoadGen, Dst: tb.SinkAddr(), At: stepAt, Bps: 10_200_000}
	gen.Start(tb.Sim, end)

	var dropsAtStep int64
	tb.Sim.At(stepAt, func() { dropsAtStep = tb.Segment.Dropped() })

	if mechanism == "feedback" {
		// The feedback architecture still needs the client-side
		// restoration so the unmodified player accepts degraded
		// packets; only the adaptation locus moves to the end points.
		if _, err := planprt.Download(tb.Client.Node, asp.AudioClient, planprt.Config{}); err != nil {
			return nil, err
		}
		fsrc := NewFeedbackSource(tb.Source)
		fsrc.StartAdaptive(tb.Sim, end)
		NewFeedbackClient(tb.Client.Node, tb.Source.Node.Addr, end)
	} else {
		tb.Source.Start(tb.Sim, end)
	}
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

// FeedbackLoadStep is a single-step CBR load generator (avoids pulling
// loadgen into this package's public surface for one use).
type FeedbackLoadStep struct {
	Node *netsim.Node
	Dst  netsim.Addr
	At   time.Duration
	Bps  int64
}

// Start schedules the step until end.
func (g *FeedbackLoadStep) Start(sim *netsim.Simulator, end time.Duration) {
	const payload = 1000
	wire := int64(payload + substrate.IPHeaderLen + substrate.UDPHeaderLen)
	interval := time.Duration(wire * 8 * int64(time.Second) / g.Bps)
	for at := g.At; at < end; at += interval {
		t := at
		sim.At(t, func() {
			g.Node.Send(netsim.NewUDP(g.Node.Addr, g.Dst, 40000, 40000, make([]byte, payload)).Own())
		})
	}
}

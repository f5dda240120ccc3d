// Package audio implements the §3.1 experiment: an audio broadcasting
// application (PCM source + playout client), the figure-5 topology, the
// PLAN-P adaptation protocol downloads, and a native Go baseline router
// for comparison.
//
// The source broadcasts CD-style PCM at the paper's rates: 16-bit
// stereo = 176 kb/s of audio payload, degrading to 88 kb/s (16-bit
// mono) and 44 kb/s (8-bit mono).
//
// Source, Client and the feedback pair are written against
// substrate.Node and node.Env() alone, so they run on either backend;
// experiment.go assembles the netsim topology and owns what is topology
// there: group membership, multicast routes and the taps that observe
// packets before the client ASP.
package audio

import (
	"math"
	"sync"
	"time"

	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// Port is the UDP port audio traffic uses (matches asp/audio_router.planp).
const Port = 5004

// PacketInterval is the packetization period.
const PacketInterval = 50 * time.Millisecond

// FramesPerPacket gives 176 kb/s of 16-bit stereo payload at the packet
// interval: 176000 b/s * 0.05 s / (32 bits per stereo frame) = 275.
const FramesPerPacket = 275

// Source sends a deterministic PCM signal to Dst, a multicast group or
// one host. On rtnet its tick runs on timer goroutines and a feedback
// report on the node's, so mu guards the fields below it.
type Source struct {
	Node substrate.Node
	Dst  substrate.Addr

	mu sync.Mutex
	// Quality is the format the source degrades to before sending
	// (prims.AudioMono16 or AudioMono8; anything else sends 16-bit
	// stereo). FeedbackSource steps it.
	Quality int
	// Sent counts packets emitted — the robustness experiments bound
	// client-side receipt by Sent plus injected duplicates.
	Sent int

	seq   uint32
	phase float64
}

// Start schedules packet emission until end.
func (s *Source) Start(end time.Duration) {
	env := s.Node.Env()
	var tick func()
	tick = func() {
		s.mu.Lock()
		if env.Now() >= end {
			s.mu.Unlock()
			return
		}
		payload := s.nextPayload()
		s.Sent++
		s.mu.Unlock()
		s.Node.Send(substrate.NewUDP(s.Node.Address(), s.Dst, Port, Port, payload).Own())
		env.After(PacketInterval, tick)
	}
	env.After(PacketInterval, tick)
}

// nextPayload synthesizes one packet of 16-bit stereo PCM — a stereo
// sine pair, different frequencies per channel so downmixing is
// observable in tests — and degrades it to s.Quality; s.mu is held.
func (s *Source) nextPayload() []byte {
	s.seq++
	buf := make([]byte, prims.AudioHeaderLen+FramesPerPacket*4)
	buf[0] = prims.AudioStereo16
	buf[1], buf[2], buf[3], buf[4] = byte(s.seq>>24), byte(s.seq>>16), byte(s.seq>>8), byte(s.seq)
	for f := 0; f < FramesPerPacket; f++ {
		s.phase += 2 * math.Pi * 440 / 5500
		l := int16(20000 * math.Sin(s.phase))
		r := int16(20000 * math.Sin(s.phase*1.5))
		o := prims.AudioHeaderLen + f*4
		buf[o], buf[o+1] = byte(uint16(l)>>8), byte(uint16(l))
		buf[o+2], buf[o+3] = byte(uint16(r)>>8), byte(uint16(r))
	}
	switch s.Quality {
	case prims.AudioMono16:
		return prims.DegradeToMono16(buf)
	case prims.AudioMono8:
		return prims.DegradeToMono8(buf)
	}
	return buf
}

// Client is the unmodified audio application: it plays 16-bit stereo
// packets on Port and records playback gaps. Packets in any other
// format are unplayable (the application was never taught about
// degradation — that is the client ASP's job). On rtnet its binding
// runs on the node's goroutine and a FeedbackClient's report on a
// timer's, so mu guards the fields below it.
type Client struct {
	Node substrate.Node

	mu sync.Mutex
	// Gaps detects long stalls (no playable audio for several packet
	// intervals).
	Gaps       *obs.GapDetector
	Unplayable int    // packets whose format the app cannot decode
	ByFormat   [4]int // packet counts indexed by format tag

	// SilentPeriods counts audible dropouts: each run of consecutive
	// lost packets (sequence discontinuity) is one silent period in
	// playback — the y-axis of figure 7. LostPackets is the total
	// missing.
	SilentPeriods int
	LostPackets   int
	expectSeq     uint32
}

// NewClient binds the client app on node. Joining a multicast group is
// the assembler's business, like routes.
func NewClient(node substrate.Node) *Client {
	c := &Client{
		Node: node,
		Gaps: obs.NewGapDetector(3 * PacketInterval),
	}
	node.BindUDP(Port, c.onPacket)
	return c
}

func (c *Client) onPacket(pkt *substrate.Packet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload := pkt.Payload
	if len(payload) < prims.AudioHeaderLen {
		c.Unplayable++
		return
	}
	format := int(payload[0])
	if format >= 1 && format <= 3 {
		c.ByFormat[format]++
	}
	seq := uint32(payload[1])<<24 | uint32(payload[2])<<16 | uint32(payload[3])<<8 | uint32(payload[4])
	if c.expectSeq != 0 && seq > c.expectSeq {
		c.SilentPeriods++
		c.LostPackets += int(seq - c.expectSeq)
	}
	c.expectSeq = seq + 1
	if format != prims.AudioStereo16 {
		// The unmodified player only decodes its native format.
		c.Unplayable++
		return
	}
	c.Gaps.Packet(c.Node.Env().Now())
}

// Received returns the packets delivered to the player, playable or not.
func (c *Client) Received() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.received()
}

// received is Received with c.mu held.
func (c *Client) received() int { return c.Gaps.Received() + c.Unplayable }

// Finish flushes measurement state at the end of a run.
func (c *Client) Finish(end time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Gaps.Finish(end)
}

// ---------------------------------------------------------------------------
// Native baseline router (the "built-in C" comparator)

// NativeAdapter is the audio-adaptation protocol hand-written in Go and
// installed as the router's packet processor: the baseline the paper
// compares PLAN-P against. Thresholds mirror asp/audio_router.planp.
type NativeAdapter struct {
	node substrate.Node
}

// InstallNative installs the native adaptation on a router node.
func InstallNative(node substrate.Node) *NativeAdapter {
	a := &NativeAdapter{node: node}
	node.SetProcessor(a)
	return a
}

// Process implements substrate.Processor.
func (a *NativeAdapter) Process(pkt *substrate.Packet, in substrate.Iface) bool {
	if pkt.UDP == nil {
		return false
	}
	if pkt.UDP.DstPort != Port {
		// Forward other UDP traffic unchanged (same behavior as the
		// ASP's else branch).
		a.node.Relay(pkt.Clone(), in)
		return true
	}
	ifc := a.node.Route(pkt.IP.Dst)
	load := int64(0)
	if ifc != nil {
		load = ifc.Load()
	}
	out := pkt.Clone()
	switch {
	case load > 80:
		out.Payload = prims.DegradeToMono8(out.Payload)
	case load > 50:
		out.Payload = prims.DegradeToMono16(out.Payload)
	}
	a.node.Relay(out, in)
	return true
}

var _ substrate.Processor = (*NativeAdapter)(nil)

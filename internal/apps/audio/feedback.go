// End-to-end feedback adaptation: the comparison point §3.1 argues
// against. The client measures loss over a reporting interval and sends
// feedback to the source, which adjusts the quality it transmits at.
// Reaction time is bounded below by the feedback interval plus a
// round trip, and during that window the network stays congested —
// exactly the lag the in-router ASP avoids.
package audio

import (
	"time"

	"planp.dev/planp/internal/lang/prims"
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

// FeedbackSource listens for client reports on the source's node and
// steps its Source's Quality.
type FeedbackSource struct {
	*Source

	// Downgrades and Upgrades count quality steps; Source.mu guards them.
	Downgrades int
	Upgrades   int
}

// NewFeedbackSource starts src at full quality and binds the report
// listener on its node.
func NewFeedbackSource(src *Source) *FeedbackSource {
	fs := &FeedbackSource{Source: src}
	src.Quality = prims.AudioStereo16
	src.Node.BindUDP(FeedbackPort, fs.onReport)
	return fs
}

// onReport applies a client loss report.
func (fs *FeedbackSource) onReport(pkt *substrate.Packet) {
	if len(pkt.Payload) < 1 {
		return
	}
	lossPct := int(pkt.Payload[0])
	fs.mu.Lock()
	defer fs.mu.Unlock()
	switch {
	case lossPct > lossDegrade && fs.Quality < prims.AudioMono8:
		fs.Quality++
		fs.Downgrades++
	case lossPct <= lossUpgrade && fs.Quality > prims.AudioStereo16:
		fs.Quality--
		fs.Upgrades++
	}
}

// FeedbackClient reports its Client's loss to the source on a timer:
// the share of packets lost among those expected since the last report.
type FeedbackClient struct {
	Client *Client
	Source substrate.Addr

	// received and lost are the Client's counts at the last report.
	received int
	lost     int
}

// NewFeedbackClient starts reporting c's loss to source until end.
func NewFeedbackClient(c *Client, source substrate.Addr, end time.Duration) *FeedbackClient {
	fc := &FeedbackClient{Client: c, Source: source}
	env := c.Node.Env()
	var report func()
	report = func() {
		if env.Now() >= end {
			return
		}
		fc.sendReport()
		env.After(FeedbackInterval, report)
	}
	env.After(FeedbackInterval, report)
	return fc
}

func (fc *FeedbackClient) sendReport() {
	c := fc.Client
	c.mu.Lock()
	received, lost := c.received(), c.LostPackets
	c.mu.Unlock()
	dReceived, dLost := received-fc.received, lost-fc.lost
	fc.received, fc.lost = received, lost
	pct := 0
	if total := dReceived + dLost; total > 0 {
		pct = dLost * 100 / total
	}
	c.Node.Send(substrate.NewUDP(c.Node.Address(), fc.Source, FeedbackPort, FeedbackPort, []byte{byte(pct)}).Own())
}

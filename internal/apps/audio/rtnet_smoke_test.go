package audio

import (
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// formats reads c's per-format packet counts under its lock.
func formats(c *Client) [4]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ByFormat
}

// waitReceived polls until the source has stopped (the clock is past
// end) and c has received every packet s sent, failing after 10 s.
func waitReceived(t *testing.T, nw *rtnet.Net, s *Source, c *Client, end time.Duration) (sent int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Read the clock first: once it is past end no tick sends again,
		// so the Sent read after it is final.
		past := nw.Now() > end
		s.mu.Lock()
		sent = s.Sent
		s.mu.Unlock()
		got := c.Received()
		if past && got == sent {
			return sent
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d packets received", got, sent)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAudioOnRTNet runs the §3.1 application unchanged on the
// real-time backend, on figure 5's network: Source ticks on timer
// goroutines and multicasts to the group, the audio router ASP on the
// router's node goroutine forwards it onto the client LAN, a shared
// segment that carries it to the client, which joined the group, and
// Client counts on the client's goroutine after the client ASP. On an
// uncongested LAN every packet sent is received and playable.
func TestAudioOnRTNet(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()
	b, err := rtnet.Build(nw, &Figure5, false)
	if err != nil {
		t.Fatal(err)
	}
	router, client := b.Node("router"), b.Node("client")
	c := NewClient(client)
	nw.Start()

	for _, d := range []struct {
		node *rtnet.Node
		src  string
	}{{router, asp.AudioRouter}, {client, asp.AudioClient}} {
		rt, err := planprt.Download(d.node, d.src, planprt.Config{})
		if err != nil {
			t.Fatalf("downloading onto %s: %v", d.node.Hostname(), err)
		}
		defer rt.Uninstall()
	}

	s := &Source{Node: b.Node("source"), Dst: group}
	end := nw.Now() + 2*time.Second
	s.Start(end)
	sent := waitReceived(t, nw, s, c, end)
	if sent == 0 {
		t.Fatal("the source sent nothing")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Unplayable != 0 || c.LostPackets != 0 {
		t.Errorf("of %d packets: %d unplayable, %d lost", sent, c.Unplayable, c.LostPackets)
	}
}

// TestFeedbackLoopOnRTNet closes the end-to-end feedback loop on the
// real-time backend. The source starts at 16-bit mono; the client's
// first report (clean, after FeedbackInterval) steps it up to stereo,
// and the stereo packets that follow reach the client. The report timer
// reads Client's counters while the client's goroutine writes them, and
// the source's tick reads Quality while the report binding writes it,
// so under -race this fails if Source or Client drops its mutex.
func TestFeedbackLoopOnRTNet(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()
	b, err := rtnet.Build(nw, &substrate.Topology{
		Nodes: []substrate.NodeSpec{
			{Name: "source", Addr: substrate.MustAddr("10.0.5.1")},
			{Name: "client", Addr: substrate.MustAddr("10.0.5.2")},
		},
		Links: []substrate.LinkSpec{{A: "source", B: "client", Bandwidth: 100_000_000}},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	source, client := b.Nodes[0], b.Nodes[1]
	fs := NewFeedbackSource(&Source{Node: source, Dst: client.Address()})
	fs.Quality = prims.AudioMono16
	c := NewClient(client)
	nw.Start()

	end := nw.Now() + FeedbackInterval + 500*time.Millisecond
	fs.Start(end)
	NewFeedbackClient(c, source.Address(), end)
	waitReceived(t, nw, fs.Source, c, end)

	fs.mu.Lock()
	upgrades, quality := fs.Upgrades, fs.Quality
	fs.mu.Unlock()
	if upgrades != 1 || quality != prims.AudioStereo16 {
		t.Fatalf("after a clean report: %d upgrades, quality %d; want 1, stereo", upgrades, quality)
	}
	f := formats(c)
	if f[prims.AudioMono16] == 0 || f[prims.AudioStereo16] == 0 {
		t.Errorf("client formats %v: want mono16 before the report and stereo after", f)
	}
}

// TestAudioAdaptationOnRTNet is the §3.1 experiment ported to the
// real-time backend as a wall-clock smoke test: the audio router ASP,
// downloaded onto a LIVE router with concurrent goroutine-per-node
// traffic, must degrade audio on a congested segment and leave it
// untouched on an uncongested one — the same adaptation the simulator
// experiment measures, now against real clocks and real concurrency.
//
// Topology:
//
//	source ──100 Mb/s── router ──100 Mb/s── clientB   (uncongested)
//	                       │
//	                    2 Mb/s
//	                       │
//	                    clientA                        (congested)
//
// The source unicasts 16-bit stereo to both clients fast enough that
// the thin link's measured utilization crosses the ASP's 50%/80%
// thresholds; the fat one stays in single-digit utilization.
func TestAudioAdaptationOnRTNet(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()

	built, err := rtnet.Build(nw, &substrate.Topology{
		Nodes: []substrate.NodeSpec{
			{Name: "source", Addr: substrate.MustAddr("10.0.3.1")},
			{Name: "router", Addr: substrate.MustAddr("10.0.3.2"), Forwarding: true},
			{Name: "clientB", Addr: substrate.MustAddr("10.0.3.3")},
			{Name: "clientA", Addr: substrate.MustAddr("10.0.3.4")},
		},
		Links: []substrate.LinkSpec{
			{A: "source", B: "router", Bandwidth: 100_000_000},
			{A: "router", B: "clientB", Bandwidth: 100_000_000},
			{A: "router", B: "clientA", Bandwidth: 2_000_000},
		},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	source, router, clientB, clientA := built.Nodes[0], built.Nodes[1], built.Nodes[2], built.Nodes[3]

	// The unmodified player counts delivered packets per format.
	appA, appB := NewClient(clientA), NewClient(clientB)

	nw.Start()

	// Download the adaptation protocol onto the running router.
	rt, err := planprt.Download(router, asp.AudioRouter, planprt.Config{})
	if err != nil {
		t.Fatalf("downloading audio router ASP: %v", err)
	}
	defer rt.Uninstall()

	// One packet of 16-bit stereo is ~9 kb on the wire; at 2 ms spacing
	// the stream toward clientA runs ~4.5 Mb/s nominal — far over the
	// thin link's 80% threshold once the rate meter's window fills —
	// while clientB's copy uses <5% of its fat segment.
	payload := make([]byte, prims.AudioHeaderLen+FramesPerPacket*4)
	payload[0] = prims.AudioStereo16
	const packets = 150
	for i := 0; i < packets; i++ {
		for _, dst := range []*rtnet.Node{clientA, clientB} {
			pkt := substrate.NewUDP(source.Address(), dst.Address(), Port, Port,
				append([]byte(nil), payload...))
			source.Send(pkt.Own())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !nw.Quiesce(10 * time.Second) {
		t.Fatal("network did not quiesce")
	}

	a, b := formats(appA), formats(appB)
	totalA := a[prims.AudioStereo16] + a[prims.AudioMono16] + a[prims.AudioMono8]
	totalB := b[prims.AudioStereo16] + b[prims.AudioMono16] + b[prims.AudioMono8]
	t.Logf("clientA formats: stereo16=%d mono16=%d mono8=%d; clientB: stereo16=%d mono16=%d mono8=%d",
		a[prims.AudioStereo16], a[prims.AudioMono16], a[prims.AudioMono8],
		b[prims.AudioStereo16], b[prims.AudioMono16], b[prims.AudioMono8])

	// Both clients keep receiving audio (adaptation, not starvation).
	if totalA < packets/2 || totalB < packets/2 {
		t.Fatalf("delivery collapsed: clientA got %d, clientB got %d of %d", totalA, totalB, packets)
	}
	// The congested branch saw degradation. Wall clocks make the exact
	// mix timing-dependent, so assert the direction, not the counts.
	if degraded := a[prims.AudioMono16] + a[prims.AudioMono8]; degraded == 0 {
		t.Error("no degraded packets on the congested branch — the router ASP never adapted")
	}
	// The uncongested branch was left alone: full-quality stereo only.
	if b[prims.AudioMono16]+b[prims.AudioMono8] != 0 {
		t.Errorf("uncongested branch was degraded: %v", b)
	}
	if b[prims.AudioStereo16] == 0 {
		t.Error("uncongested branch received no full-quality audio")
	}
}

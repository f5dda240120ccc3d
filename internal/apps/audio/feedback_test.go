package audio

import (
	"testing"
	"time"

	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
)

// linked builds nodes a (10.0.0.1) and b (10.0.0.2) joined by a
// 10 Mb/s link on the simulator.
func linked(t *testing.T, a, b string) (*netsim.Simulator, *netsim.Node, *netsim.Node) {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(1))
	built, err := netsim.Build(sim, &substrate.Topology{
		Nodes: []substrate.NodeSpec{{Name: a, Addr: substrate.MustAddr("10.0.0.1")}, {Name: b, Addr: substrate.MustAddr("10.0.0.2")}},
		Links: []substrate.LinkSpec{{A: a, B: b, Bandwidth: 10_000_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, built.Nodes[0], built.Nodes[1]
}

func TestFeedbackSourceAdjustsQuality(t *testing.T) {
	sim, src, peer := linked(t, "src", "peer")

	fs := NewFeedbackSource(&Source{Node: src, Dst: netsim.MustAddr("224.1.1.1")})
	if fs.Quality != prims.AudioStereo16 {
		t.Fatal("initial quality should be full")
	}
	report := func(pct byte) {
		peer.Send(netsim.NewUDP(peer.Addr, src.Addr, FeedbackPort, FeedbackPort, []byte{pct}))
		sim.Run()
	}
	report(10) // heavy loss: degrade
	if fs.Quality != prims.AudioMono16 || fs.Downgrades != 1 {
		t.Errorf("after loss: quality=%d downgrades=%d", fs.Quality, fs.Downgrades)
	}
	report(50)
	if fs.Quality != prims.AudioMono8 {
		t.Errorf("second loss report should reach mono8, got %d", fs.Quality)
	}
	report(50) // already at the floor
	if fs.Quality != prims.AudioMono8 {
		t.Error("quality must not pass the floor")
	}
	report(0) // clean interval: upgrade one step
	if fs.Quality != prims.AudioMono16 || fs.Upgrades != 1 {
		t.Errorf("after clean interval: quality=%d upgrades=%d", fs.Quality, fs.Upgrades)
	}
	report(0)
	report(0) // already at the ceiling
	if fs.Quality != prims.AudioStereo16 {
		t.Errorf("quality should recover to stereo, got %d", fs.Quality)
	}
}

func TestFeedbackClientLossAccounting(t *testing.T) {
	sim, cl, srcNode := linked(t, "cl", "src")

	var reports []byte
	srcNode.BindUDP(FeedbackPort, func(p *netsim.Packet) {
		reports = append(reports, p.Payload[0])
	})
	NewFeedbackClient(NewClient(cl), srcNode.Addr, 10*time.Second)

	// Inject audio packets with sequence gaps directly at the client:
	// seqs 1,2,5,6 -> 2 lost out of 6 expected (33%).
	mk := func(seq uint32) *netsim.Packet {
		b := make([]byte, prims.AudioHeaderLen+4)
		b[0] = prims.AudioMono8
		b[1], b[2], b[3], b[4] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		return netsim.NewUDP(srcNode.Addr, cl.Addr, Port, Port, b)
	}
	for _, seq := range []uint32{1, 2, 5, 6} {
		cl.Receive(mk(seq), nil)
	}
	sim.RunUntil(FeedbackInterval + time.Second)
	if len(reports) == 0 {
		t.Fatal("no feedback report sent")
	}
	if reports[0] != 33 {
		t.Errorf("reported loss %d%%, want 33%%", reports[0])
	}
}

func TestRunLocusRouterFasterThanFeedback(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60 s virtual runs")
	}
	router, err := RunLocus("router", Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	feedback, err := RunLocus("feedback", Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if router.ReactionTime == 0 {
		t.Fatal("router never reacted")
	}
	if feedback.ReactionTime == 0 {
		t.Fatal("feedback never reacted")
	}
	if router.ReactionTime > 500*time.Millisecond {
		t.Errorf("router reaction %v, want within ~2 meter windows", router.ReactionTime)
	}
	if feedback.ReactionTime < 4*router.ReactionTime {
		t.Errorf("feedback (%v) should react much slower than the router (%v)",
			feedback.ReactionTime, router.ReactionTime)
	}
}

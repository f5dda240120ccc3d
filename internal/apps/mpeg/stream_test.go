package mpeg

import (
	"testing"
	"time"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
)

func TestGOPStructure(t *testing.T) {
	// The GOP pattern drives frame sizes: I > P > B, one I per 12.
	var iFrames, pFrames, bFrames int
	for pos := 0; pos < 24; pos++ {
		kind, size := frameSize(pos)
		switch kind {
		case 'I':
			iFrames++
			if size != IFrameBytes {
				t.Errorf("I frame size %d", size)
			}
		case 'P':
			pFrames++
			if size != PFrameBytes {
				t.Errorf("P frame size %d", size)
			}
		case 'B':
			bFrames++
			if size != BFrameBytes {
				t.Errorf("B frame size %d", size)
			}
		}
	}
	if iFrames != 2 || pFrames != 6 || bFrames != 16 {
		t.Errorf("GOP counts I/P/B = %d/%d/%d over two GOPs", iFrames, pFrames, bFrames)
	}
}

func TestStreamBitrate(t *testing.T) {
	// One GOP every 12 frames at 25 fps: average payload bitrate.
	var total int
	for pos := 0; pos < 12; pos++ {
		_, size := frameSize(pos)
		total += size
	}
	bps := float64(total*8) * 25 / 12
	// ~0.7-1.5 Mb/s, MPEG-1-ish.
	if bps < 600_000 || bps > 2_000_000 {
		t.Errorf("stream bitrate %.0f b/s out of the MPEG-1 class", bps)
	}
}

func TestViewerReceivesGOPMix(t *testing.T) {
	res, err := Run(Options{Viewers: 1, UseASPs: false}, 12*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	tb, err := NewTestbed(Options{Viewers: 1, UseASPs: false})
	if err != nil {
		t.Fatal(err)
	}
	tb.Sim.At(time.Second, tb.Clients[0].Start)
	tb.Sim.RunUntil(13 * time.Second)
	c := tb.Clients[0]
	if c.Frames == 0 || c.IFrames == 0 {
		t.Fatalf("frames=%d iframes=%d", c.Frames, c.IFrames)
	}
	ratio := float64(c.IFrames) / float64(c.Frames)
	if ratio < 0.05 || ratio > 0.12 {
		t.Errorf("I-frame ratio %.3f, want ~1/12", ratio)
	}
}

func TestControlMessageCodec(t *testing.T) {
	req := controlMsg(TagRequest, 0xDEADBEEF)
	if req[0] != 'R' || u32(req, 1) != 0xDEADBEEF {
		t.Error("request codec")
	}
	s := setupMsg(7, []byte{1, 2, 3})
	if s[0] != 'S' || u32(s, 1) != 7 || len(s) != 8 {
		t.Error("setup codec")
	}
	d := dataMsg(7, 'P', 42, 100)
	if d[0] != 'D' || u32(d, 1) != 7 || d[5] != 'P' || u32(d, 6) != 42 || len(d) != 10+100 {
		t.Error("data codec")
	}
}

func TestServerIgnoresMalformedControl(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	node := netsim.NewNode(sim, "srv", netsim.MustAddr("10.0.0.1"))
	s := NewServer(node)
	// Short payload and non-TCP packets must not crash or register.
	node.Receive(substrate.NewTCP(netsim.MustAddr("10.0.0.2"), node.Addr, 1, ServerPort, 0, 0, []byte{1}), nil)
	node.Receive(netsim.NewUDP(netsim.MustAddr("10.0.0.2"), node.Addr, 1, ServerPort, controlMsg(TagRequest, 1)), nil)
	sim.Run()
	if s.Connections != 0 {
		t.Errorf("connections = %d after malformed control", s.Connections)
	}
}

func TestTeardownFromWrongClientIgnored(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	b, err := netsim.Build(sim, &substrate.Topology{
		Nodes: []substrate.NodeSpec{
			{Name: "srv", Addr: substrate.MustAddr("10.0.0.1")},
			{Name: "c1", Addr: substrate.MustAddr("10.0.0.2")},
			{Name: "c2", Addr: substrate.MustAddr("10.0.0.3")},
		},
		Segments: []substrate.SegmentSpec{{Name: "lan", Bandwidth: 10_000_000, Members: []string{"srv", "c1", "c2"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srvNode, c1, c2 := b.Nodes[0], b.Nodes[1], b.Nodes[2]
	s := NewServer(srvNode)
	cl := NewClient(c1, srvNode.Addr, 0, 1, false)
	cl.Start()
	sim.RunUntil(2 * time.Second)
	framesAt2s := cl.Frames
	if framesAt2s == 0 {
		t.Fatal("stream never started")
	}
	// c2 (not the viewer) sends a teardown for stream 1: must be ignored.
	c2.Send(substrate.NewTCP(c2.Addr, srvNode.Addr, 5, ServerPort, 0, substrate.FlagPsh, controlMsg(TagTeardown, 1)))
	sim.RunUntil(4 * time.Second)
	if cl.Frames <= framesAt2s {
		t.Error("stream stopped after a teardown from the wrong client")
	}
	if s.Connections != 1 {
		t.Errorf("connections = %d", s.Connections)
	}
}

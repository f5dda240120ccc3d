package mpeg_test

import (
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/mpeg"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/rtnet"
)

// TestMPEGOnRTNet is §3.3 on the real-time backend, on the network the
// experiment simulates: the unmodified point-to-point video server
// behind the router, and a shared client LAN where the monitor ASP and
// two viewers' capture ASPs listen promiscuously. The first viewer asks
// the monitor, hears nothing of the stream and connects; the second
// learns from the monitor that the stream is on the LAN and captures
// it. The server serves one connection, and both viewers decode frames
// at the real 40 ms frame interval, I-frames included. Wall clocks make
// exact frame counts timing-dependent; assertions are directional.
func TestMPEGOnRTNet(t *testing.T) {
	nw := rtnet.New(1)
	defer nw.Close()
	b, err := rtnet.Build(nw, mpeg.Topology(2, true), false)
	if err != nil {
		t.Fatal(err)
	}
	srvNode, monitor := b.Node("videoserver"), b.Node("monitor")
	server := mpeg.NewServer(srvNode)
	var viewers []*mpeg.Client
	for _, name := range []string{"viewer1", "viewer2"} {
		viewers = append(viewers, mpeg.NewClient(b.Node(name), srvNode.Address(), monitor.Address(), 1, true))
	}
	nw.Start()

	for _, d := range []struct{ node, src string }{
		{"monitor", asp.MPEGMonitor}, {"viewer1", asp.MPEGClient}, {"viewer2", asp.MPEGClient},
	} {
		rt, err := planprt.Download(b.Node(d.node), d.src, planprt.Config{})
		if err != nil {
			t.Fatalf("downloading onto %s: %v", d.node, err)
		}
		defer rt.Uninstall()
	}

	// Each viewer in turn, once the one before it plays: "several frames
	// and at least one I-frame" (the GOP opens with I, and repeats
	// every 12 frames).
	for k, v := range viewers {
		v.Start()
		deadline := time.Now().Add(10 * time.Second)
		for {
			frames, _, iframes := v.Stats()
			if frames >= 5 && iframes >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("viewer%d: frames=%d iframes=%d after 10s, want >=5 with an I-frame", k+1, frames, iframes)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	conns, srvFrames, srvBytes := server.Stats()
	if conns != 1 {
		t.Fatalf("server connections = %d with two viewers, want 1", conns)
	}
	if srvFrames == 0 || srvBytes == 0 {
		t.Fatalf("server counters frames=%d bytes=%d, want both > 0", srvFrames, srvBytes)
	}

	// Teardown stops the stream: after the FIN settles and any
	// in-flight tick drains, the server's frame counter must freeze.
	viewers[0].Teardown()
	if !nw.Quiesce(5 * time.Second) {
		t.Fatal("network did not quiesce after teardown")
	}
	time.Sleep(2 * mpeg.FrameInterval)
	_, stopped, _ := server.Stats()
	time.Sleep(5 * mpeg.FrameInterval)
	_, after, _ := server.Stats()
	if after != stopped {
		t.Fatalf("server kept streaming after teardown: %d -> %d frames", stopped, after)
	}

	// Each viewer saw (a part of) what the server sent — nothing
	// invented.
	for k, v := range viewers {
		if frames, bytes, _ := v.Stats(); frames > after || bytes == 0 {
			t.Fatalf("viewer%d decoded %d frames (%d bytes), the server sent %d", k+1, frames, bytes, after)
		}
	}
}

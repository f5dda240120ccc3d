package rtnet_test

import (
	"testing"
	"time"

	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
	"planp.dev/planp/internal/substrate/subtest"
)

// rtHarness adapts the real-time backend to the substrate conformance
// suite. udp selects loopback-UDP links instead of in-process channels,
// so the same behavioral suite also exercises the wire codec and real
// kernel datagram delivery; segments are in-process on both.
type rtHarness struct {
	nw  *rtnet.Net
	udp bool
}

func (h *rtHarness) Build(t *testing.T, spec *substrate.Topology) []substrate.Node {
	h.nw = rtnet.New(42)
	t.Cleanup(h.nw.Close)
	b, err := rtnet.Build(h.nw, spec, h.udp)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]substrate.Node, len(b.Nodes))
	for i, n := range b.Nodes {
		out[i] = n
	}
	return out
}

func (h *rtHarness) Start() { h.nw.Start() }

func (h *rtHarness) Settle(t *testing.T) {
	if !h.nw.Quiesce(10 * time.Second) {
		t.Fatalf("rtnet did not quiesce")
	}
}

func (h *rtHarness) Env() substrate.Env { return h.nw }

// TestSubstrateConformance runs the shared backend conformance suite
// against the real-time backend with in-process channel links.
func TestSubstrateConformance(t *testing.T) {
	subtest.Run(t, func() subtest.Harness { return &rtHarness{} })
}

// TestSubstrateConformanceUDP runs the same suite over loopback-UDP
// socket links (wire codec + real kernel delivery).
func TestSubstrateConformanceUDP(t *testing.T) {
	subtest.Run(t, func() subtest.Harness { return &rtHarness{udp: true} })
}

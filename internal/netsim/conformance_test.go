package netsim_test

import (
	"testing"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/substrate"
	"planp.dev/planp/internal/substrate/subtest"
)

// simHarness adapts the deterministic simulator to the substrate
// conformance suite.
type simHarness struct {
	sim *netsim.Simulator
}

func (h *simHarness) Build(t *testing.T, hosts []subtest.HostSpec) []substrate.Node {
	h.sim = netsim.New(netsim.WithSeed(42))
	ns := make([]*netsim.Node, len(hosts))
	for i, hs := range hosts {
		ns[i] = netsim.NewNode(h.sim, hs.Name, hs.Addr)
		ns[i].Forwarding = hs.Forwarding
	}
	// Line topology: link consecutive pairs, route left/right along the
	// line, default routes off the ends (so unknown destinations leave
	// the line the way real stub networks default-route upstream).
	left := make([]*netsim.Iface, len(ns))  // iface toward lower indices
	right := make([]*netsim.Iface, len(ns)) // iface toward higher indices
	for i := 0; i+1 < len(ns); i++ {
		l := netsim.Connect(h.sim, ns[i], ns[i+1], netsim.LinkConfig{Bandwidth: subtest.LinkBps})
		ifs := l.Ifaces()
		right[i], left[i+1] = ifs[0], ifs[1]
	}
	out := make([]substrate.Node, len(ns))
	for i, n := range ns {
		for j := range ns {
			switch {
			case j < i:
				n.AddRoute(ns[j].Addr, left[i])
			case j > i:
				n.AddRoute(ns[j].Addr, right[i])
			}
		}
		if i == 0 {
			n.SetDefaultRoute(right[i])
		} else if i == len(ns)-1 {
			n.SetDefaultRoute(left[i])
		}
		out[i] = n
	}
	return out
}

func (h *simHarness) Start() {}

func (h *simHarness) Settle(t *testing.T) { h.sim.Run() }

func (h *simHarness) Env() substrate.Env { return h.sim }

// TestSubstrateConformance runs the shared backend conformance suite
// against the simulator.
func TestSubstrateConformance(t *testing.T) {
	subtest.Run(t, func() subtest.Harness { return &simHarness{} })
}

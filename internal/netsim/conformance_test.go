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

func (h *simHarness) Build(t *testing.T, spec *substrate.Topology) []substrate.Node {
	h.sim = netsim.New(netsim.WithSeed(42))
	b, err := netsim.Build(h.sim, spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]substrate.Node, len(b.Nodes))
	for i, n := range b.Nodes {
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

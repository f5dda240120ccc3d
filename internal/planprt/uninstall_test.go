package planprt

import (
	"testing"

	"planp.dev/planp/internal/netsim"
)

const forwarder = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
`

func TestUninstallIdempotent(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	nodes := []*netsim.Node{
		netsim.NewNode(sim, "r1", netsim.Addr(0x0A000001)),
		netsim.NewNode(sim, "r2", netsim.Addr(0x0A000002)),
	}
	rt, err := Download(nodes[0], forwarder, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Uninstall()
	rt.Uninstall()
	if nodes[0].Processor != nil {
		t.Error("uninstall failed")
	}
	// Reinstalling a single-node program after uninstall works (the
	// install count was released).
	p, err := Load(`
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, (ipDestSet(#1 p, 10.0.0.99), #2 p, #3 p)); (ps, ss))
`, Config{Verify: VerifySingleNode})
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := Install(nodes[0], p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt2.Uninstall()
	if _, err := Install(nodes[1], p, nil); err != nil {
		t.Errorf("reinstall after uninstall should succeed: %v", err)
	}
}

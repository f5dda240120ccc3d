package planprt

import (
	"testing"

	"planp.dev/planp/internal/netsim"
)

const forwarder = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
`

func chain(t *testing.T) (*netsim.Simulator, []*netsim.Node) {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(1))
	var nodes []*netsim.Node
	for i, name := range []string{"a", "r1", "r2", "b"} {
		n := netsim.NewNode(sim, name, netsim.Addr(0x0A000001+uint32(i)))
		if name[0] == 'r' {
			n.Forwarding = true
		}
		nodes = append(nodes, n)
	}
	for i := 0; i < 3; i++ {
		l := netsim.Connect(sim, nodes[i], nodes[i+1], netsim.LinkConfig{Bandwidth: 10_000_000})
		nodes[i].AddRoute(nodes[3].Addr, l.Ifaces()[0])
		nodes[i+1].AddRoute(nodes[0].Addr, l.Ifaces()[1])
		if i == 0 {
			nodes[i].SetDefaultRoute(l.Ifaces()[0])
		}
	}
	nodes[1].AddRoute(nodes[3].Addr, nodes[1].Ifaces()[1])
	nodes[2].AddRoute(nodes[3].Addr, nodes[2].Ifaces()[1])
	nodes[3].SetDefaultRoute(nodes[3].Ifaces()[0])
	return sim, nodes
}

func TestDeployAcrossRouters(t *testing.T) {
	sim, nodes := chain(t)
	p, err := Load(forwarder, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(p, nil, nodes[1], nodes[2])
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	nodes[3].BindUDP(9, func(*netsim.Packet) { got++ })
	for i := 0; i < 4; i++ {
		nodes[0].Send(netsim.NewUDP(nodes[0].Addr, nodes[3].Addr, 1, 9, []byte("x")))
	}
	sim.Run()
	if got != 4 {
		t.Fatalf("delivered %d, want 4", got)
	}
	total := d.TotalStats()
	if total.Processed != 8 { // 4 packets x 2 routers
		t.Errorf("deployment processed %d, want 8", total.Processed)
	}
	// Each runtime has independent state.
	for i, rt := range d.Runtimes() {
		if got := rt.Instance().Proto.AsInt(); got != 4 {
			t.Errorf("router %d state = %d, want 4", i, got)
		}
	}

	d.Undeploy()
	if nodes[1].Processor != nil || nodes[2].Processor != nil {
		t.Error("undeploy left processors installed")
	}
	// Traffic still flows via standard forwarding after withdrawal.
	nodes[0].Send(netsim.NewUDP(nodes[0].Addr, nodes[3].Addr, 1, 9, []byte("y")))
	sim.Run()
	if got != 5 {
		t.Errorf("post-undeploy delivery failed: %d", got)
	}
}

func TestDeployRollsBackOnConflict(t *testing.T) {
	_, nodes := chain(t)
	p, err := Load(forwarder, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy r2 with another protocol.
	if _, err := Download(nodes[2], forwarder, Config{}); err != nil {
		t.Fatal(err)
	}
	occupied := nodes[2].Processor
	if _, err := Deploy(p, nil, nodes[1], nodes[2]); err == nil {
		t.Fatal("deploy over an occupied node must fail")
	}
	if nodes[1].Processor != nil {
		t.Error("failed deploy left a runtime on r1 (no rollback)")
	}
	if nodes[2].Processor != occupied {
		t.Error("failed deploy disturbed the existing protocol on r2")
	}
}

// TestDeployRollsBackOnMidListConflict: the occupied node sits in the
// MIDDLE of the node list, so the deployment has already installed on
// earlier nodes and has later nodes still pending when it hits the
// conflict. Rollback must release every install — the program's install
// accounting returns to zero and no runtime remains anywhere.
func TestDeployRollsBackOnMidListConflict(t *testing.T) {
	_, nodes := chain(t)
	p, err := Load(forwarder, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy r2, then deploy across a, r1, r2, b: two installs succeed
	// before the conflict, one node never gets reached.
	occupiedRT, err := Download(nodes[2], forwarder, Config{})
	if err != nil {
		t.Fatal(err)
	}
	occupied := nodes[2].Processor
	if _, err := Deploy(p, nil, nodes[0], nodes[1], nodes[2], nodes[3]); err == nil {
		t.Fatal("deploy over a mid-list occupied node must fail")
	}
	for _, i := range []int{0, 1, 3} {
		if nodes[i].Processor != nil {
			t.Errorf("rollback left a runtime on %s", nodes[i].Hostname())
		}
	}
	if nodes[2].Processor != occupied {
		t.Error("failed deploy disturbed the occupying protocol")
	}
	if got := p.Installs(); got != 0 {
		t.Errorf("program still accounts %d installs after rollback, want 0", got)
	}
	// The released install slots are reusable: the same program deploys
	// cleanly once the conflict is gone.
	occupiedRT.Uninstall()
	d, err := Deploy(p, nil, nodes[0], nodes[1], nodes[2], nodes[3])
	if err != nil {
		t.Fatalf("redeploy after rollback: %v", err)
	}
	if got := p.Installs(); got != 4 {
		t.Errorf("program accounts %d installs, want 4", got)
	}
	d.Undeploy()
	if got := p.Installs(); got != 0 {
		t.Errorf("undeploy left %d installs accounted", got)
	}
}

func TestDeploySingleNodeProgramRefusesFanOut(t *testing.T) {
	_, nodes := chain(t)
	p, err := Load(`
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, (ipDestSet(#1 p, 10.0.0.99), #2 p, #3 p)); (ps, ss))
`, Config{Verify: VerifySingleNode})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(p, nil, nodes[1], nodes[2]); err == nil {
		t.Fatal("single-node program must not deploy to two nodes")
	}
	if nodes[1].Processor != nil || nodes[2].Processor != nil {
		t.Error("rollback failed")
	}
	// The rejected fan-out released its install slot: the single-node
	// accounting is back to zero, so one node is fine.
	if got := p.Installs(); got != 0 {
		t.Fatalf("program accounts %d installs after refused fan-out, want 0", got)
	}
	if _, err := Deploy(p, nil, nodes[1]); err != nil {
		t.Fatal(err)
	}
}

func TestDeployEmptyNodeSet(t *testing.T) {
	p, err := Load(forwarder, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(p, nil); err == nil {
		t.Error("empty deployment should fail")
	}
}

func TestUninstallIdempotent(t *testing.T) {
	_, nodes := chain(t)
	rt, err := Download(nodes[1], forwarder, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Uninstall()
	rt.Uninstall()
	if nodes[1].Processor != nil {
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
	rt2, err := Install(nodes[1], p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt2.Uninstall()
	if _, err := Install(nodes[2], p, nil); err != nil {
		t.Errorf("reinstall after uninstall should succeed: %v", err)
	}
}

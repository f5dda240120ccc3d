package testbed

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"planp.dev/planp/internal/adapt"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/substrate"
)

// adaptRig is the live adaptation testbed: the §3.2 demo daemon — its
// own chaos engine over its links, its control plane behind real HTTP,
// its adaptation controller driving its fleet controller — wall-clock
// end to end.
type adaptRig struct {
	cluster *Demo
	eng     *chaos.Engine
	targets []fleet.Target
	fc      *fleet.Controller
	ctl     *adapt.Controller
}

func newAdaptRig(t *testing.T) *adaptRig {
	t.Helper()
	cluster, gateway := startDemo(t, Options{Events: testLog(t)})
	return &adaptRig{
		cluster: cluster,
		eng:     cluster.Chaos,
		targets: []fleet.Target{{Name: "gateway", URL: gateway}},
		fc:      cluster.Fleet,
		ctl:     cluster.Adapt,
	}
}

// traffic streams client requests at the virtual server until the
// returned stop function is called — the load the guard metrics
// observe.
func (r *adaptRig) traffic() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var port atomic.Uint32
	port.Store(20000)
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				r.cluster.SendRequest(uint16(20000 + port.Add(1)%40000))
			}
		}
	}()
	return func() { cancel(); <-done }
}

// link resolves a chaos link reference on the demo daemon's engine.
func (r *adaptRig) link(t *testing.T, ref string) *chaos.Link {
	t.Helper()
	l, err := r.eng.LookupLink(ref)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (r *adaptRig) deployPolicy(t *testing.T, name, version string) {
	t.Helper()
	pol, ok := httpd.GatewayPolicyNamed(name)
	if !ok {
		t.Fatalf("no gateway policy %q", name)
	}
	if _, err := r.fc.Deploy(context.Background(),
		fleet.Spec{Version: version, Source: pol.Source, Verify: "single"}, r.targets); err != nil {
		t.Fatalf("deploy %s: %v", name, err)
	}
}

// activeVersion reads the gateway's running version over its control
// API.
func (r *adaptRig) activeVersion(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(r.targets[0].URL + "/asp")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Active string `json:"active"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Active
}

// lossyLinkGuard is the canary guard for the demo: the gateway→server0
// link must not be dropping packets to faults. Chaos loss on that link
// makes the counter climb, which is exactly what the guard catches.
const lossyLinkGuard = "link.gateway:server0.fault_dropped_pkts<=0.5"

// TestAdaptCanaryChaosRollbackE2E: a canary rollout meets a degraded
// network. Chaos puts loss on the gateway→server0 link while the canary
// is under observation; the guard sees the fault-drop rate climb and
// the controller rolls the canary back to the incumbent on its own.
// Then the network heals: clearing the link takes the loss off it, and
// the gateway, swapped to the canary and back, still serves as the
// virtual server.
func TestAdaptCanaryChaosRollbackE2E(t *testing.T) {
	r := newAdaptRig(t)
	r.deployPolicy(t, "roundrobin", "v1")
	stop := r.traffic()
	defer stop()

	// Degrade the environment the canary will be judged in. The
	// candidate is the "random" policy — like the incumbent it keeps
	// sending connections at server0, so the lossy link stays on the
	// datapath the guard watches.
	link := r.link(t, "gateway-server0")
	link.SetLoss(0.9)

	random, _ := httpd.GatewayPolicyNamed("random")
	guards, err := adapt.ParseGuards([]string{lossyLinkGuard})
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.ctl.Canary(context.Background(), adapt.CanaryPlan{
		Spec:     fleet.Spec{Version: "v2", Source: random.Source, Verify: "single"},
		Canary:   r.targets,
		Guards:   guards,
		Windows:  3,
		Interval: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("canary under chaos must roll back cleanly: %v", err)
	}
	if out.Verdict != adapt.VerdictRolledBack {
		t.Fatalf("verdict = %s (%s), want rolled-back under link loss", out.Verdict, out.Reason)
	}
	if len(out.Violations) == 0 || !strings.Contains(out.Reason, "fault_dropped_pkts") {
		t.Errorf("rollback does not cite the link guard: %q %v", out.Reason, out.Violations)
	}
	if got := r.activeVersion(t); got != "v1" {
		t.Errorf("gateway runs %q after auto-rollback, want v1", got)
	}
	// The fleet history records the whole episode: deploy, canary,
	// rollback with the violation as its reason.
	views := r.fc.Deployments()
	last := views[len(views)-1]
	if last.Kind != "rollback" || !strings.Contains(last.Reason, "guard violated") {
		t.Errorf("last history record = kind %q reason %q, want the guard rollback", last.Kind, last.Reason)
	}

	// Heal: after the clear the link drops nothing more to faults, so
	// probes from the gateway all reach server0 (the probes go to its
	// discard port, which the requests do not). And the gateway still
	// serves: responses keep arriving from the virtual server.
	link.Clear()
	faultDrops := r.cluster.Net.Metrics().Counter("link.gateway:server0.fault_dropped_pkts")
	rx := r.cluster.Net.Metrics().Counter("testbed.server0.rx_pkts")
	dropsHealed, rxHealed := faultDrops.Value(), rx.Value()
	gw, s0 := r.cluster.Node("gateway"), r.cluster.Node("server0")
	for i := 0; i < 50; i++ {
		gw.Send(substrate.NewUDP(gw.Address(), s0.Address(), discardPort, discardPort, []byte("probe")).Own())
	}
	before, beforeVirtual := r.cluster.Responses()
	time.Sleep(500 * time.Millisecond)
	if dropped, got := faultDrops.Value()-dropsHealed, rx.Value()-rxHealed; dropped != 0 || got != 50 {
		t.Errorf("after the heal gateway->server0 dropped %d packets to faults and delivered %d of 50 probes", dropped, got)
	}
	after, fromVirtual := r.cluster.Responses()
	if after <= before {
		t.Errorf("no responses after heal: %d -> %d", before, after)
	}
	if fromVirtual <= beforeVirtual {
		t.Error("no responses masqueraded as the virtual server after heal")
	}
}

package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/routetest"
)

// forwarder is the minimal deployable protocol.
const forwarder = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
`

// forwarderV2 is behaviourally identical but textually distinct, so an
// upgrade is a real source change.
const forwarderV2 = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 2, ss))
`

// brokenASP fails late checking (unknown identifier).
const brokenASP = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (nonsense(p); (ps, ss))
`

// singleNodeASP only passes verification under the single-node policy
// (it rewrites the destination address).
const singleNodeASP = `
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (OnRemote(network, (ipDestSet(#1 p, 10.0.0.99), #2 p, #3 p)); (ps, ss))
`

// testFleet is a fleet of real planpd servers, each managing its own
// netsim node, fronted by real HTTP servers.
type testFleet struct {
	targets []Target
	nodes   map[string]*netsim.Node
	servers map[string]*swapServer
	inj     *Injector
	slept   *sleepRecorder
}

// swapServer fronts one node's planpd handler and can simulate the node
// process crashing and restarting with empty protocol state at a
// deterministic point: just before the next GET /asp (the controller's
// reconciliation query). A crash replaces the planpd server with a
// fresh one — all downloaded ASP state is gone, exactly like
// netsim.Node.Crash loses the installed processor.
type swapServer struct {
	mu             sync.Mutex
	h              http.Handler
	node           *netsim.Node
	crashBeforeGet bool
}

func (s *swapServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.crashBeforeGet && r.Method == http.MethodGet && r.URL.Path == "/asp" {
		s.crashBeforeGet = false
		s.node.Crash()
		s.node.Restart()
		s.h = planpd.NewServer(s.node, nil).Handler()
	}
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// crashBeforeReconcile arms the named node to crash-and-restart just
// before the controller's next GET /asp.
func (tf *testFleet) crashBeforeReconcile(name string) {
	s := tf.servers[name]
	s.mu.Lock()
	s.crashBeforeGet = true
	s.mu.Unlock()
}

type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (s *sleepRecorder) sleep(_ context.Context, d time.Duration) {
	s.mu.Lock()
	s.delays = append(s.delays, d)
	s.mu.Unlock()
}

func (s *sleepRecorder) all() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.delays...)
}

// newTestFleet boots n planpd-managed nodes behind httptest servers and
// returns a fleet handle whose injector sits on the controller's path.
func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(1))
	tf := &testFleet{
		nodes:   map[string]*netsim.Node{},
		servers: map[string]*swapServer{},
		inj:     NewInjector(nil),
		slept:   &sleepRecorder{},
	}
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < n; i++ {
		name := names[i]
		node := netsim.NewNode(sim, name, netsim.Addr(0x0A000001+uint32(i)))
		sw := &swapServer{h: planpd.NewServer(node, nil).Handler(), node: node}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		tf.nodes[name] = node
		tf.servers[name] = sw
		tf.targets = append(tf.targets, Target{Name: name, URL: srv.URL})
	}
	return tf
}

// host returns the host:port of the named target, for fault rules.
func (tf *testFleet) host(name string) string {
	for _, tgt := range tf.targets {
		if tgt.Name == name {
			return strings.TrimPrefix(tgt.URL, "http://")
		}
	}
	return ""
}

// controller builds a Controller over the fleet's injector with retry
// sleeps recorded instead of slept (tests never wait on backoff).
func (tf *testFleet) controller(cfg Config) *Controller {
	cfg.Client = &http.Client{Transport: tf.inj}
	c := New(cfg)
	c.sleepFn = tf.slept.sleep
	return c
}

// nodeState reads one planpd node's /asp status directly.
func (tf *testFleet) nodeState(t *testing.T, name string) (active, staged string) {
	t.Helper()
	for _, tgt := range tf.targets {
		if tgt.Name != name {
			continue
		}
		resp, err := http.Get(tgt.URL + "/asp")
		if err != nil {
			t.Fatalf("GET /asp on %s: %v", name, err)
		}
		defer resp.Body.Close()
		var body struct {
			Active string `json:"active"`
			Staged string `json:"staged"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Active, body.Staged
	}
	t.Fatalf("no target named %s", name)
	return "", ""
}

func statuses(v View) map[string]NodeStatus {
	out := map[string]NodeStatus{}
	for _, n := range v.Nodes {
		out[n.Name] = n.Status
	}
	return out
}

// TestFleetRolloutAllActive: the no-fault path. Every node activates,
// the deployment reports Active, and an upgrade rollout records the
// displaced version per node.
func TestFleetRolloutAllActive(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{})

	d, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if got := d.State(); got != StateActive {
		t.Fatalf("deployment state = %s, want Active", got)
	}
	for name, st := range statuses(d.View()) {
		if st != NodeActive {
			t.Errorf("node %s: status %s, want Active", name, st)
		}
	}
	for _, tgt := range tf.targets {
		active, staged := tf.nodeState(t, tgt.Name)
		if active != "v1" || staged != "" {
			t.Errorf("node %s runs %q (staged %q), want v1 active, nothing staged", tgt.Name, active, staged)
		}
		if tf.nodes[tgt.Name].CurrentProcessor() == nil {
			t.Errorf("node %s has no processor installed", tgt.Name)
		}
	}

	// Upgrade: v2 over v1. The stage/activate cycle replaces the running
	// version without an uninstall window and records v1 as the previous
	// version on every node.
	d2, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets)
	if err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	for _, n := range d2.View().Nodes {
		if n.Status != NodeActive {
			t.Errorf("node %s: status %s after upgrade, want Active", n.Name, n.Status)
		}
		if n.PrevVersion != "v1" {
			t.Errorf("node %s: prev version %q, want v1", n.Name, n.PrevVersion)
		}
	}
	for _, tgt := range tf.targets {
		if active, _ := tf.nodeState(t, tgt.Name); active != "v2" {
			t.Errorf("node %s runs %q after upgrade, want v2", tgt.Name, active)
		}
	}
}

// TestFleetRollbackOnActivateFailure is the acceptance scenario: a
// 3-node fleet where one node fails during activation must converge
// every healthy node back to the previously active version, with the
// deployment reporting RolledBack.
func TestFleetRollbackOnActivateFailure(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{})

	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}

	// gamma's activate endpoint 503s persistently: retries exhaust, the
	// reconciliation query finds v2 still staged, and the fleet must
	// roll back.
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Host: tf.host("gamma"), Path: "/asp/activate",
		Action: FaultStatus, Status: http.StatusServiceUnavailable,
	})

	d, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets)
	if err == nil {
		t.Fatal("deploy with a failing activation must return an error")
	}
	if got := d.State(); got != StateRolledBack {
		t.Fatalf("deployment state = %s, want RolledBack", got)
	}
	v := d.View()
	st := statuses(v)
	if st["alpha"] != NodeRolledBack || st["beta"] != NodeRolledBack {
		t.Errorf("healthy nodes = %s/%s, want RolledBack/RolledBack", st["alpha"], st["beta"])
	}
	// The failing node also converges (its stage is aborted, so it never
	// left v1) but keeps the activation error for diagnosis.
	if st["gamma"] != NodeRolledBack {
		t.Errorf("failing node = %s, want RolledBack (stage aborted)", st["gamma"])
	}
	for _, n := range v.Nodes {
		if n.Name == "gamma" && n.Error == "" {
			t.Error("failing node lost its activation error")
		}
	}
	// Convergence: every node is back on v1.
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if active, _ := tf.nodeState(t, name); active != "v1" {
			t.Errorf("node %s runs %q after rollback, want v1", name, active)
		}
	}
	// The controller retried the 503s before giving up, without real
	// sleeps longer than the policy cap.
	delays := tf.slept.all()
	if len(delays) == 0 {
		t.Error("no retries recorded for a persistently failing endpoint")
	}
	for _, d := range delays {
		if d > 2*time.Second {
			t.Errorf("retry delay %v exceeds policy bounds", d)
		}
	}
}

// TestFleetRollbackQueryable: after the rollback, GET /deployments
// reports the full history with per-node statuses.
func TestFleetRollbackQueryable(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Host: tf.host("beta"), Path: "/asp/activate",
		Action: FaultStatus, Status: http.StatusInternalServerError,
	})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets); err == nil {
		t.Fatal("want rollout failure")
	}

	api := httptest.NewServer(c.Handler())
	defer api.Close()
	resp, err := http.Get(api.URL + "/deployments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Deployments []View `json:"deployments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Deployments) != 2 {
		t.Fatalf("history has %d deployments, want 2", len(body.Deployments))
	}
	if body.Deployments[0].State != StateActive || body.Deployments[1].State != StateRolledBack {
		t.Fatalf("history states = %s, %s; want Active, RolledBack",
			body.Deployments[0].State, body.Deployments[1].State)
	}
	rolled := 0
	for _, n := range body.Deployments[1].Nodes {
		if n.Status == NodeRolledBack {
			rolled++
		}
	}
	if rolled != 3 {
		t.Errorf("%d nodes report RolledBack, want 3 (failing node's stage was aborted)", rolled)
	}

	// Single-deployment query.
	resp2, err := http.Get(api.URL + "/deployments?id=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var one View
	if err := json.NewDecoder(resp2.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if one.ID != 2 || one.State != StateRolledBack {
		t.Errorf("GET ?id=2 = %+v, want ID 2 RolledBack", one)
	}
	if resp3, _ := http.Get(api.URL + "/deployments?id=99"); resp3.StatusCode != http.StatusNotFound {
		t.Errorf("GET ?id=99 = %d, want 404", resp3.StatusCode)
	}
}

// TestFleetKillMidActivate: a node that dies mid-activation (request
// applied, response lost, node gone) cannot be confirmed and is marked
// Failed; every reachable node still converges back.
func TestFleetKillMidActivate(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Host: tf.host("gamma"), Path: "/asp/activate",
		Action: FaultKill, Count: 1,
	})
	d, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets)
	if err == nil {
		t.Fatal("deploy with a dying node must fail")
	}
	if got := d.State(); got != StateRolledBack {
		t.Fatalf("deployment state = %s, want RolledBack", got)
	}
	st := statuses(d.View())
	if st["gamma"] != NodeFailed {
		t.Errorf("killed node = %s, want Failed (state unconfirmable)", st["gamma"])
	}
	for _, name := range []string{"alpha", "beta"} {
		if st[name] != NodeRolledBack {
			t.Errorf("node %s = %s, want RolledBack", name, st[name])
		}
		if active, _ := tf.nodeState(t, name); active != "v1" {
			t.Errorf("node %s runs %q, want v1", name, active)
		}
	}
}

// cancelOnActivate is a RoundTripper that calls cancel as the nth
// POST /asp/activate of version goes out — a rollout deadline (or the HTTP client
// of POST /deploy hanging up) landing in the middle of phase 2.
type cancelOnActivate struct {
	base    http.RoundTripper
	version string
	n       int32
	seen    atomic.Int32
	cancel  context.CancelFunc
}

func (rt *cancelOnActivate) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/asp/activate") &&
		req.URL.Query().Get("version") == rt.version && rt.seen.Add(1) == rt.n {
		rt.cancel()
	}
	return rt.base.RoundTrip(req)
}

// TestFleetDeadlineDuringActivateRollsBack: the caller's context ends
// while the fleet is half-activated. The compensation must not die with
// it: every node is returned to v1 with nothing left staged, and the
// record that says RolledBack is true.
func TestFleetDeadlineDuringActivateRollsBack(t *testing.T) {
	tf := newTestFleet(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := New(Config{Client: &http.Client{Transport: &cancelOnActivate{base: tf.inj, version: "v2", n: 2, cancel: cancel}}})
	c.sleepFn = tf.slept.sleep
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}

	d, err := c.Deploy(ctx, Spec{Version: "v2", Source: forwarderV2}, tf.targets)
	if err == nil {
		t.Fatal("a rollout whose context ended mid-activate must return an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not carry the cancellation: %v", err)
	}
	for _, tgt := range tf.targets {
		if active, staged := tf.nodeState(t, tgt.Name); active != "v1" || staged != "" {
			t.Errorf("node %s: active %q staged %q after the rollback, want v1 and nothing staged", tgt.Name, active, staged)
		}
	}
	v := d.View()
	if v.State != StateRolledBack {
		t.Errorf("deployment state = %s, want RolledBack", v.State)
	}
	for _, n := range v.Nodes {
		if n.Status != NodeRolledBack {
			t.Errorf("node %s = %s (%s), want RolledBack", n.Name, n.Status, n.Error)
		}
	}
}

// TestFleetLostResponseReconciled: an activation whose response is lost
// but which committed on the node is reconciled via GET /asp — the
// rollout still succeeds, exercising the idempotent node state machine.
func TestFleetLostResponseReconciled(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{Retry: RetryPolicy{Attempts: 3}})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}
	// All 3 activate attempts against beta commit server-side but lose
	// their responses; the reconciliation query then observes v2 active.
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Host: tf.host("beta"), Path: "/asp/activate",
		Action: FaultLoseResponse, Count: 3,
	})
	d, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets)
	if err != nil {
		t.Fatalf("deploy should reconcile the committed activation: %v", err)
	}
	if got := d.State(); got != StateActive {
		t.Fatalf("deployment state = %s, want Active", got)
	}
	for _, tgt := range tf.targets {
		if active, _ := tf.nodeState(t, tgt.Name); active != "v2" {
			t.Errorf("node %s runs %q, want v2", tgt.Name, active)
		}
	}
}

// TestFleetStageFailureAborts: a stage rejection anywhere aborts the
// stage everywhere; no node's packet processing changes.
func TestFleetStageFailureAborts(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Host: tf.host("beta"), Path: "/asp/stage",
		Action: FaultStatus, Status: http.StatusUnprocessableEntity,
	})
	d, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets)
	if err == nil {
		t.Fatal("deploy with a failing stage must fail")
	}
	if got := d.State(); got != StateFailed {
		t.Fatalf("deployment state = %s, want Failed", got)
	}
	st := statuses(d.View())
	if st["beta"] != NodeFailed {
		t.Errorf("beta = %s, want Failed", st["beta"])
	}
	for _, name := range []string{"alpha", "gamma"} {
		if st[name] != NodePending {
			t.Errorf("node %s = %s, want Pending (stage aborted)", name, st[name])
		}
	}
	for _, tgt := range tf.targets {
		active, staged := tf.nodeState(t, tgt.Name)
		if active != "v1" {
			t.Errorf("node %s runs %q, want v1 untouched", tgt.Name, active)
		}
		if staged != "" {
			t.Errorf("node %s still holds staged %q after abort", tgt.Name, staged)
		}
	}
}

// TestFleetLostStageResponseAborted: a node whose stage applied but
// every answer to it was lost is marked Failed and fails the rollout;
// it is still sent the abort, so no node keeps a stage of the version.
func TestFleetLostStageResponseAborted(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Host: tf.host("beta"), Path: "/asp/stage",
		Action: FaultLoseResponse,
	})
	d, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets)
	if err == nil {
		t.Fatal("deploy whose stage answers are all lost must fail")
	}
	if got := d.State(); got != StateFailed {
		t.Fatalf("deployment state = %s, want Failed", got)
	}
	if st := statuses(d.View()); st["beta"] != NodeFailed {
		t.Errorf("beta = %s, want Failed", st["beta"])
	}
	for _, tgt := range tf.targets {
		if active, staged := tf.nodeState(t, tgt.Name); active != "v1" || staged != "" {
			t.Errorf("node %s: active %q staged %q, want v1 and nothing staged", tgt.Name, active, staged)
		}
	}
}

// TestFleetRedeployFailureKeepsRunningVersion: re-deploying the label a
// node already runs (a fleet grown by one member) and failing — in
// either phase, on the new member — must leave the nodes that ran it
// running it. Undoing the failed rollout is not undoing the earlier one
// that put v2 there.
func TestFleetRedeployFailureKeepsRunningVersion(t *testing.T) {
	for _, tc := range []struct {
		phase, path string
		state       State
		done        NodeStatus
	}{
		{"stage", "/asp/stage", StateFailed, NodePending},
		{"activate", "/asp/activate", StateRolledBack, NodeRolledBack},
	} {
		t.Run(tc.phase, func(t *testing.T) {
			tf := newTestFleet(t, 4)
			c := tf.controller(Config{})
			ctx := context.Background()
			for _, s := range []Spec{{Version: "v1", Source: forwarder}, {Version: "v2", Source: forwarderV2}} {
				if _, err := c.Deploy(ctx, s, tf.targets[:3]); err != nil {
					t.Fatalf("baseline deploy %s: %v", s.Version, err)
				}
			}
			tf.inj.Inject(Fault{
				Method: http.MethodPost, Host: tf.host("delta"), Path: tc.path,
				Action: FaultStatus, Status: http.StatusServiceUnavailable,
			})
			d, err := c.Deploy(ctx, Spec{Version: "v2", Source: forwarderV2}, tf.targets)
			if err == nil {
				t.Fatalf("deploy with a failing %s must fail", tc.phase)
			}
			v := d.View()
			if v.State != tc.state {
				t.Errorf("deployment state = %s, want %s", v.State, tc.state)
			}
			for _, n := range v.Nodes[:3] {
				if n.Status != tc.done {
					t.Errorf("node %s = %s (%s), want %s", n.Name, n.Status, n.Error, tc.done)
				}
				if active, staged := tf.nodeState(t, n.Name); active != "v2" || staged != "" {
					t.Errorf("node %s: active %q staged %q, want v2 still running and nothing staged", n.Name, active, staged)
				}
			}
			if active, staged := tf.nodeState(t, "delta"); active != "" || staged != "" {
				t.Errorf("delta: active %q staged %q, want bare", active, staged)
			}
		})
	}
}

// TestFleetHealthGate: a dead member fails the rollout before anything
// is staged anywhere.
func TestFleetHealthGate(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{Retry: RetryPolicy{Attempts: 2}})
	tf.inj.Kill(tf.host("beta"))
	d, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets)
	if err == nil {
		t.Fatal("deploy against a dead node must fail")
	}
	if got := d.State(); got != StateFailed {
		t.Fatalf("deployment state = %s, want Failed", got)
	}
	st := statuses(d.View())
	if st["beta"] != NodeFailed {
		t.Errorf("beta = %s, want Failed", st["beta"])
	}
	for _, name := range []string{"alpha", "gamma"} {
		if st[name] != NodePending {
			t.Errorf("node %s = %s, want Pending", name, st[name])
		}
		active, staged := tf.nodeState(t, name)
		if active != "" || staged != "" {
			t.Errorf("node %s was touched (active %q, staged %q) despite the health gate", name, active, staged)
		}
	}
}

// TestFleetLocalPrecheck: a broken program, or a single-node-verified
// program offered several nodes, fails on the controller before any
// HTTP request.
func TestFleetLocalPrecheck(t *testing.T) {
	tf := newTestFleet(t, 2)
	c := tf.controller(Config{})

	d, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: brokenASP}, tf.targets)
	if err == nil {
		t.Fatal("broken program must fail")
	}
	if got := d.State(); got != StateFailed {
		t.Fatalf("state = %s, want Failed", got)
	}
	for _, n := range d.View().Nodes {
		if n.Attempts != 0 {
			t.Errorf("node %s saw %d HTTP attempts for a locally rejected program", n.Name, n.Attempts)
		}
	}

	if _, err := c.Deploy(context.Background(),
		Spec{Version: "v1", Source: singleNodeASP, Verify: "single"}, tf.targets); err == nil {
		t.Fatal("single-node program must not fan out to 2 nodes")
	}
	// The same program against one node is fine.
	d3, err := c.Deploy(context.Background(),
		Spec{Version: "v1", Source: singleNodeASP, Verify: "single"}, tf.targets[:1])
	if err != nil {
		t.Fatalf("single-node deploy to one node: %v", err)
	}
	if got := d3.State(); got != StateActive {
		t.Errorf("state = %s, want Active", got)
	}
}

// TestFleetTransientFaultsRetried: 5xx bursts and dropped requests are
// absorbed by the retry policy; the rollout still converges and the
// retry metric counts the extra attempts.
func TestFleetTransientFaultsRetried(t *testing.T) {
	tf := newTestFleet(t, 3)
	reg := obs.NewRegistry()
	c := tf.controller(Config{Metrics: reg})
	// Two 503s on the first stage request anywhere, one dropped activate.
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Path: "/asp/stage",
		Action: FaultStatus, Status: http.StatusServiceUnavailable, Count: 2,
	})
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Path: "/asp/activate",
		Action: FaultDrop, Count: 1,
	})
	d, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets)
	if err != nil {
		t.Fatalf("deploy through transient faults: %v", err)
	}
	if got := d.State(); got != StateActive {
		t.Fatalf("state = %s, want Active", got)
	}
	snap := reg.Snapshot()
	if got := snap["fleet.http_retries"]; got != 3 {
		t.Errorf("fleet.http_retries = %d, want 3", got)
	}
	if got := snap["fleet.deployments_active"]; got != 1 {
		t.Errorf("fleet.deployments_active = %d, want 1", got)
	}
	// Recorded backoff schedule respects the (defaulted) policy bounds.
	for _, delay := range tf.slept.all() {
		if delay <= 0 || delay > 1200*time.Millisecond {
			t.Errorf("backoff delay %v outside (0, 1.2s]", delay)
		}
	}
}

// TestFleetEvents: the rollout publishes deploy/rollback events on the
// bus.
func TestFleetEvents(t *testing.T) {
	tf := newTestFleet(t, 2)
	bus := &obs.Bus{}
	var mu sync.Mutex
	got := map[string]int{}
	bus.Subscribe(obs.Func(func(e obs.Event) {
		mu.Lock()
		got[e.Kind.String()+":"+e.Detail]++
		mu.Unlock()
	}))
	c := tf.controller(Config{Bus: bus})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: forwarder}, tf.targets); err != nil {
		t.Fatal(err)
	}
	tf.inj.Inject(Fault{
		Method: http.MethodPost, Host: tf.host("beta"), Path: "/asp/activate",
		Action: FaultStatus, Status: http.StatusBadGateway,
	})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: forwarderV2}, tf.targets); err == nil {
		t.Fatal("want failure")
	}
	mu.Lock()
	defer mu.Unlock()
	if got["deploy:stage:ok"] != 4 {
		t.Errorf("deploy:stage:ok = %d, want 4 (2 nodes x 2 rollouts)", got["deploy:stage:ok"])
	}
	if got["deploy:activate:failed"] != 1 {
		t.Errorf("deploy:activate:failed = %d, want 1", got["deploy:activate:failed"])
	}
	if got["rollback:restored:v1"] != 1 {
		t.Errorf("rollback:restored:v1 = %d, want 1", got["rollback:restored:v1"])
	}
}

// TestFleetValidation: malformed requests fail fast, before a record is
// even created.
func TestFleetValidation(t *testing.T) {
	tf := newTestFleet(t, 1)
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Source: forwarder}, nil); err == nil {
		t.Error("empty target list must fail")
	}
	dup := []Target{{Name: "x", URL: "http://a"}, {Name: "x", URL: "http://b"}}
	if _, err := c.Deploy(context.Background(), Spec{Source: forwarder}, dup); err == nil {
		t.Error("duplicate target names must fail")
	}
	if _, err := c.Deploy(context.Background(),
		Spec{Source: forwarder, Engine: "quantum"}, tf.targets); err == nil ||
		!strings.Contains(err.Error(), `fleet: unknown engine "quantum"`) {
		t.Errorf("unknown engine: err %v, want fleet: unknown engine \"quantum\"", err)
	}
	if len(c.Deployments()) != 0 {
		t.Errorf("validation failures left %d records", len(c.Deployments()))
	}
	// An empty version gets an auto-assigned label.
	d, err := c.Deploy(context.Background(), Spec{Source: forwarder}, tf.targets)
	if err != nil {
		t.Fatal(err)
	}
	if d.View().Version == "" {
		t.Error("no version label auto-assigned")
	}
}

func TestRoutesRefuseOtherMethods(t *testing.T) {
	routetest.RefusesOtherMethods(t, New(Config{}).Handler(), map[string][]string{
		"/deployments": {"GET"},
	})
}

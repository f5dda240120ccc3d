// Canary integration tests: real planpd servers over netsim nodes, the
// fleet controller doing real two-phase rollouts over real HTTP, and a
// scripted /stats feed plus the fault-injecting RoundTripper making
// every failure deterministic. The adaptation controller's sleep is
// injected, so whole canary lifecycles run in microseconds of wall
// time.
package adapt

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/routetest"
)

// Two textually distinct forwarders: the incumbent and the candidate.
const fwdV1 = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 1, ss))
`

const fwdV2 = `
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  (OnRemote(network, p); (ps + 2, ss))
`

// statsScript overrides one node's GET /stats with a canned snapshot
// sequence (served in order, last repeats), putting window rates fully
// under test control.
type statsScript struct {
	mu    sync.Mutex
	snaps []Snapshot
	i     int
}

func (s *statsScript) set(snaps ...Snapshot) {
	s.mu.Lock()
	s.snaps, s.i = snaps, 0
	s.mu.Unlock()
}

func (s *statsScript) serve(w http.ResponseWriter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.snaps) == 0 {
		return false
	}
	snap := s.snaps[min(s.i, len(s.snaps)-1)]
	s.i++
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
	return true
}

// fakeClock drives the controller's sleep hook: sleeping advances the
// clock instead of waiting.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Sleep(_ context.Context, d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// rig is a fleet of planpd-managed netsim nodes plus an adaptation
// controller wired for determinism: injector on the HTTP path, scripted
// stats, fake clock.
type rig struct {
	targets []fleet.Target
	nodes   map[string]*netsim.Node
	scripts map[string]*statsScript
	inj     *fleet.Injector
	reg     *obs.Registry
	events  *eventLog // kind:step counts
	ring    *obs.Ring // every event, for the decision records
	fleet   *fleet.Controller
	ctl     *Controller
	clock   *fakeClock
}

type eventLog struct {
	mu  sync.Mutex
	got map[string]int
}

// step strips a decision's Detail to its step: without the record
// prefix ("d3 ", "a1 ") and without the ": <reason>" tail.
func step(detail string) string {
	if ref, rest, ok := strings.Cut(detail, " "); ok && len(ref) > 1 && strings.Trim(ref[1:], "0123456789") == "" {
		detail = rest
	}
	s, _, _ := strings.Cut(detail, ": ")
	return s
}

func (l *eventLog) count(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.got[key]
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(1))
	r := &rig{
		nodes:   map[string]*netsim.Node{},
		scripts: map[string]*statsScript{},
		inj:     fleet.NewInjector(nil),
		reg:     obs.NewRegistry(),
		events:  &eventLog{got: map[string]int{}},
		ring:    obs.NewRing(512),
		clock:   &fakeClock{t: time.Unix(1_000_000, 0)},
	}
	names := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		name := names[i]
		node := netsim.NewNode(sim, name, netsim.Addr(0x0A000001+uint32(i)))
		script := &statsScript{}
		ph := planpd.NewServer(node, nil).Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/stats" && script.serve(w) {
				return
			}
			ph.ServeHTTP(w, req)
		}))
		t.Cleanup(srv.Close)
		r.nodes[name] = node
		r.scripts[name] = script
		r.targets = append(r.targets, fleet.Target{Name: name, URL: srv.URL})
	}

	bus := &obs.Bus{}
	bus.Subscribe(obs.Func(func(e obs.Event) {
		r.events.mu.Lock()
		r.events.got[e.Kind.String()+":"+step(e.Detail)]++
		r.events.mu.Unlock()
	}))
	bus.Subscribe(r.ring)
	r.fleet = fleet.New(fleet.Config{
		Client:  &http.Client{Transport: r.inj},
		Bus:     bus,
		Metrics: r.reg,
		Retry:   fleet.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	r.ctl = New(r.fleet)
	r.ctl.sleepFn = r.clock.Sleep
	return r
}

// host returns the host:port of a target, for fault rules.
func (r *rig) host(name string) string {
	for _, tgt := range r.targets {
		if tgt.Name == name {
			return strings.TrimPrefix(tgt.URL, "http://")
		}
	}
	return ""
}

// active reads one node's running version straight from its /asp.
func (r *rig) active(t *testing.T, name string) string {
	t.Helper()
	for _, tgt := range r.targets {
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
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Active
	}
	t.Fatalf("no target named %s", name)
	return ""
}

// flatline scripts a node's stats as a flat counter over polls polls —
// a perfectly healthy cohort member.
func (r *rig) flatline(name string, polls int) {
	snaps := make([]Snapshot, polls)
	for i := range snaps {
		snaps[i] = snapAt(name, time.Duration(i+1)*time.Second, "drops", 0)
	}
	r.scripts[name].set(snaps...)
}

// deployV1 installs the incumbent on every target.
func (r *rig) deployV1(t *testing.T) {
	t.Helper()
	if _, err := r.fleet.Deploy(context.Background(), fleet.Spec{Version: "v1", Source: fwdV1}, r.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
}

func kinds(views []fleet.View) []string {
	out := make([]string, len(views))
	for i, v := range views {
		out[i] = v.Kind
	}
	return out
}

// TestCanarySelfPromotes is the acceptance path: deploy to the canary
// cohort, observe healthy windows, auto-promote fleet-wide — all of it
// recorded in the fleet history as canary + promote records.
func TestCanarySelfPromotes(t *testing.T) {
	r := newRig(t, 3)
	r.deployV1(t)
	for _, name := range []string{"alpha", "beta", "gamma"} {
		r.flatline(name, 4)
	}

	out, err := r.ctl.Canary(context.Background(), CanaryPlan{
		Spec:     fleet.Spec{Version: "v2", Source: fwdV2},
		Canary:   r.targets[:1],
		Baseline: r.targets[1:],
		Guards:   []Guard{{Metric: "drops", Max: 5}},
		Windows:  2,
		Interval: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("canary: %v", err)
	}
	if out.Verdict != VerdictPromoted {
		t.Fatalf("verdict = %s (%s), want promoted", out.Verdict, out.Reason)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if got := r.active(t, name); got != "v2" {
			t.Errorf("node %s runs %q after promotion, want v2", name, got)
		}
	}

	// The history tells the whole story: operator deploy, canary,
	// promote — the latter two carrying their kinds and reasons.
	views := r.fleet.Deployments()
	if got := kinds(views); len(got) != 3 || got[0] != "" || got[1] != "canary" || got[2] != "promote" {
		t.Fatalf("history kinds = %v, want [, canary, promote]", got)
	}
	if views[1].State != fleet.StateActive || views[2].State != fleet.StateActive {
		t.Errorf("canary/promote states = %s/%s, want Active/Active", views[1].State, views[2].State)
	}
	if !strings.Contains(views[2].Reason, "healthy") {
		t.Errorf("promote reason %q does not explain the promotion", views[2].Reason)
	}

	snap := r.reg.Snapshot()
	if snap["adapt.promoted"] != 1 || snap["adapt.windows_ok"] != 2 || snap["adapt.rolled_back"] != 0 {
		t.Errorf("metrics = promoted %d, windows_ok %d, rolled_back %d; want 1, 2, 0",
			snap["adapt.promoted"], snap["adapt.windows_ok"], snap["adapt.rolled_back"])
	}
	if r.events.count("canary:active") != 1 || r.events.count("canary:promoted") != 1 {
		t.Errorf("canary events: active %d, promoted %d; want 1 each",
			r.events.count("canary:active"), r.events.count("canary:promoted"))
	}
	// No real time passed: observation advanced the injected clock only.
	if got := r.clock.Now().Sub(time.Unix(1_000_000, 0)); got != 10*time.Second {
		t.Errorf("injected clock advanced %v, want 10s (2 windows x 5s)", got)
	}
}

// TestCanaryUnlabelledPromotesOneVersion: a canary started without a
// version label gets one from the fleet, and the promote rollout
// carries that same label — the fleet converges on one version, not on
// a canary "v2" beside a baseline "v3".
func TestCanaryUnlabelledPromotesOneVersion(t *testing.T) {
	r := newRig(t, 3)
	r.deployV1(t)
	for _, name := range []string{"alpha", "beta", "gamma"} {
		r.flatline(name, 2)
	}
	out, err := r.ctl.Canary(context.Background(), CanaryPlan{
		Spec: fleet.Spec{Source: fwdV2}, Canary: r.targets[:1], Baseline: r.targets[1:],
		Guards: []Guard{{Metric: "drops", Max: 5}}, Windows: 1, Interval: time.Second,
	})
	if err != nil {
		t.Fatalf("canary: %v", err)
	}
	label := out.Canary.View().Version
	if label == "" || !strings.Contains(out.Reason, "canary "+label+" healthy") {
		t.Errorf("reason %q does not name the assigned label %q", out.Reason, label)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if got := r.active(t, name); got != label {
			t.Errorf("node %s runs %q after promotion, want %q", name, got, label)
		}
	}
}

// TestCanaryGuardViolationRollsBack: the candidate misbehaves inside
// the observation window; the controller revokes it and the canary node
// converges back, with the violation spelled out in the history.
func TestCanaryGuardViolationRollsBack(t *testing.T) {
	r := newRig(t, 3)
	r.deployV1(t)
	// alpha's drop counter explodes in the first window: 100 drops over
	// one scripted second.
	r.scripts["alpha"].set(
		snapAt("alpha", 1*time.Second, "drops", 0),
		snapAt("alpha", 2*time.Second, "drops", 100),
	)
	r.flatline("beta", 4)
	r.flatline("gamma", 4)

	out, err := r.ctl.Canary(context.Background(), CanaryPlan{
		Spec:     fleet.Spec{Version: "v2", Source: fwdV2},
		Canary:   r.targets[:1],
		Baseline: r.targets[1:],
		Guards:   []Guard{{Metric: "drops", Max: 5}},
		Windows:  3,
		Interval: time.Second,
	})
	if err != nil {
		t.Fatalf("a rollback verdict is not an error: %v", err)
	}
	if out.Verdict != VerdictRolledBack {
		t.Fatalf("verdict = %s (%s), want rolled-back", out.Verdict, out.Reason)
	}
	if len(out.Violations) != 1 || out.Violations[0].Node != "alpha" {
		t.Fatalf("violations = %+v, want one on alpha", out.Violations)
	}
	if got := r.active(t, "alpha"); got != "v1" {
		t.Errorf("canary node runs %q after rollback, want v1", got)
	}
	for _, name := range []string{"beta", "gamma"} {
		if got := r.active(t, name); got != "v1" {
			t.Errorf("baseline node %s runs %q, want v1 untouched", name, got)
		}
	}

	views := r.fleet.Deployments()
	last := views[len(views)-1]
	if last.Kind != "rollback" || last.State != fleet.StateRolledBack {
		t.Fatalf("last record = kind %q state %s, want rollback/RolledBack", last.Kind, last.State)
	}
	if !strings.Contains(last.Reason, "guard violated in window 1") {
		t.Errorf("rollback reason %q does not name the violated window", last.Reason)
	}
	snap := r.reg.Snapshot()
	if snap["adapt.rolled_back"] != 1 || snap["adapt.windows_violation"] != 1 {
		t.Errorf("metrics rolled_back %d, windows_violation %d; want 1, 1",
			snap["adapt.rolled_back"], snap["adapt.windows_violation"])
	}
	if r.events.count("canary:window:1:violation") != 1 || r.events.count("canary:rolled-back") != 1 {
		t.Errorf("violation/rollback events missing: %v", r.events.got)
	}
}

// TestCanaryStatsFailureRollsBack: the canary's stats endpoint starts
// 500ing mid-observation. A canary that cannot be watched cannot be
// promoted — the controller rolls it back.
func TestCanaryStatsFailureRollsBack(t *testing.T) {
	r := newRig(t, 2)
	r.deployV1(t)
	r.flatline("alpha", 4)
	r.flatline("beta", 4)
	// The initial snapshot succeeds; every later poll of alpha 500s.
	r.inj.Inject(fleet.Fault{
		Method: http.MethodGet, Host: r.host("alpha"), Path: "/stats",
		Action: fleet.FaultStatus, Status: http.StatusInternalServerError, After: 1,
	})

	out, err := r.ctl.Canary(context.Background(), CanaryPlan{
		Spec:     fleet.Spec{Version: "v2", Source: fwdV2},
		Canary:   r.targets[:1],
		Baseline: r.targets[1:],
		Guards:   []Guard{{Metric: "drops", Max: 5}},
		Windows:  2,
		Interval: time.Second,
	})
	if err != nil {
		t.Fatalf("unobservable canary should roll back cleanly: %v", err)
	}
	if out.Verdict != VerdictRolledBack {
		t.Fatalf("verdict = %s (%s), want rolled-back", out.Verdict, out.Reason)
	}
	if !strings.Contains(out.Reason, "unobservable") {
		t.Errorf("reason %q does not say the canary was unobservable", out.Reason)
	}
	if got := r.active(t, "alpha"); got != "v1" {
		t.Errorf("canary runs %q after rollback, want v1", got)
	}
	if r.events.count("canary:unobservable") == 0 {
		t.Error("no unobservable event published")
	}
}

// TestCanaryDiesMidObserve: the canary node vanishes entirely during
// observation. The rollback cannot reach it, so the run reports Failed
// honestly — and once the node returns, a replayed rollback converges
// it (the node-side protocol is idempotent).
func TestCanaryDiesMidObserve(t *testing.T) {
	r := newRig(t, 2)
	r.deployV1(t)
	r.flatline("alpha", 4)
	r.flatline("beta", 4)
	// First window poll kills the node: request applied, response lost,
	// host dead from then on.
	r.inj.Inject(fleet.Fault{
		Method: http.MethodGet, Host: r.host("alpha"), Path: "/stats",
		Action: fleet.FaultKill, After: 1, Count: 1,
	})

	out, err := r.ctl.Canary(context.Background(), CanaryPlan{
		Spec:    fleet.Spec{Version: "v2", Source: fwdV2},
		Canary:  r.targets[:1],
		Guards:  []Guard{{Metric: "drops", Max: 5}},
		Windows: 2, Interval: time.Second,
	})
	if err == nil || out.Verdict != VerdictFailed {
		t.Fatalf("verdict = %v err %v, want failed with error (rollback unreachable)", out, err)
	}
	views := r.fleet.Deployments()
	last := views[len(views)-1]
	if last.Kind != "rollback" || last.State != fleet.StateFailed {
		t.Fatalf("last record = kind %q state %s, want rollback/Failed", last.Kind, last.State)
	}

	// The node comes back: replaying the rollback converges it.
	r.inj.Revive(r.host("alpha"))
	if _, err := r.fleet.RollbackDeployment(context.Background(), out.Canary, "node revived; converging"); err != nil {
		t.Fatalf("replayed rollback after revival: %v", err)
	}
	if got := r.active(t, "alpha"); got != "v1" {
		t.Errorf("revived canary runs %q, want v1", got)
	}
}

// TestCanaryPromoteInterrupted: the canary is healthy but the promote
// rollout fails partway. The fleet converges the baseline cohort back
// by itself, and the controller revokes the canary too — a clean
// all-incumbent fleet instead of a wedged mixed one.
func TestCanaryPromoteInterrupted(t *testing.T) {
	r := newRig(t, 3)
	r.deployV1(t)
	for _, name := range []string{"alpha", "beta", "gamma"} {
		r.flatline(name, 4)
	}
	// beta persistently refuses activation during the promote phase.
	r.inj.Inject(fleet.Fault{
		Method: http.MethodPost, Host: r.host("beta"), Path: "/asp/activate",
		Action: fleet.FaultStatus, Status: http.StatusServiceUnavailable,
	})

	out, err := r.ctl.Canary(context.Background(), CanaryPlan{
		Spec:     fleet.Spec{Version: "v2", Source: fwdV2},
		Canary:   r.targets[:1],
		Baseline: r.targets[1:],
		Guards:   []Guard{{Metric: "drops", Max: 5}},
		Windows:  1,
		Interval: time.Second,
	})
	if err != nil {
		t.Fatalf("interrupted promotion should converge cleanly: %v", err)
	}
	if out.Verdict != VerdictRolledBack {
		t.Fatalf("verdict = %s (%s), want rolled-back", out.Verdict, out.Reason)
	}
	if !strings.Contains(out.Reason, "promotion failed") {
		t.Errorf("reason %q does not blame the promotion", out.Reason)
	}
	// Everything converged back to the incumbent.
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if got := r.active(t, name); got != "v1" {
			t.Errorf("node %s runs %q after interrupted promotion, want v1", name, got)
		}
	}
	// History: baseline deploy, canary, the promote that rolled itself
	// back, and the canary's revocation.
	if got := kinds(r.fleet.Deployments()); len(got) != 4 ||
		got[1] != "canary" || got[2] != "promote" || got[3] != "rollback" {
		t.Fatalf("history kinds = %v, want [, canary, promote, rollback]", got)
	}
}

// TestAdaptHTTPAPI: the POST /adapt + GET /adapt surface — a run
// started over HTTP proceeds in the background and its whole story is
// queryable.
func TestAdaptHTTPAPI(t *testing.T) {
	r := newRig(t, 1)
	r.deployV1(t)
	r.flatline("alpha", 4)
	api := httptest.NewServer(r.ctl.Handler())
	defer api.Close()

	// A malformed guard, or an engine planprt.ParseConfig does not know
	// (the register VM is not one of its engines): rejected up front, no
	// run started.
	for _, bad := range []string{
		`{"source":"x","canary":[{"Name":"alpha","URL":"u"}],"guards":["nonsense"]}`,
		`{"source":"x","engine":"bytecode","canary":[{"Name":"alpha","URL":"u"}],"guards":["drops<=5"]}`,
	} {
		resp, err := http.Post(api.URL+"/adapt", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: got %d, want 422", bad, resp.StatusCode)
		}
	}
	if runs := r.ctl.Runs(); len(runs) != 0 {
		t.Fatalf("rejected requests started %d runs", len(runs))
	}

	body, _ := json.Marshal(CanaryRequest{
		Version: "v2", Source: fwdV2,
		Canary:     []fleet.Target{r.targets[0]},
		Guards:     []string{"drops<=5"},
		Windows:    1,
		IntervalMS: 10,
	})
	resp, err := http.Post(api.URL+"/adapt", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var started struct {
		ID      int  `json:"id"`
		Started bool `json:"started"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !started.Started || started.ID == 0 {
		t.Fatalf("POST /adapt = %d %+v, want 202 with run id", resp.StatusCode, started)
	}

	// The background run finishes (its sleeps advance the fake clock, so
	// this is fast); GET /adapt reports the full record.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var runs struct {
			Runs []RunView `json:"runs"`
		}
		resp, err := http.Get(api.URL + "/adapt")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(runs.Runs) == 1 && runs.Runs[0].Phase == "done" {
			run := runs.Runs[0]
			if run.Verdict != VerdictPromoted {
				t.Fatalf("run = %+v, want promoted", run)
			}
			if run.CanaryDeployment == 0 || run.Version != "v2" || run.Canary != "alpha" {
				t.Errorf("run record incomplete: %+v", run)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never finished: %+v", runs.Runs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.active(t, "alpha"); got != "v2" {
		t.Errorf("node runs %q after HTTP-started canary, want v2", got)
	}
}

// TestAdaptCapsRunsInProgress: while maxRuns runs are in progress,
// POST /adapt answers 503 and starts nothing — no record, no node
// request; once one run finishes, a POST is accepted again. The node
// holds every request until the test releases it, and a released one
// is refused, which fails that run.
func TestAdaptCapsRunsInProgress(t *testing.T) {
	var mu sync.Mutex
	requests := 0
	arrived, release := make(chan struct{}, 2*maxRuns), make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		arrived <- struct{}{}
		select {
		case <-release:
		case <-req.Context().Done():
		}
		http.Error(w, "refused", http.StatusUnprocessableEntity)
	}))
	defer node.Close()
	ctl := New(fleet.New(fleet.Config{}))
	api := httptest.NewServer(ctl.Handler())
	defer api.Close()
	defer ctl.Drain(context.Background())
	defer close(release) // first: every held request answers, every run ends

	body, _ := json.Marshal(CanaryRequest{
		Version: "v2", Source: fwdV1,
		Canary: []fleet.Target{{Name: "alpha", URL: node.URL}},
		Guards: []string{"drops<=5"},
	})
	post := func() int {
		t.Helper()
		resp, err := http.Post(api.URL+"/adapt", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < maxRuns; i++ {
		if code := post(); code != http.StatusAccepted {
			t.Fatalf("POST %d: %d, want 202", i+1, code)
		}
	}
	for i := 0; i < maxRuns; i++ {
		<-arrived // every run holds its first node request
	}
	if code := post(); code != http.StatusServiceUnavailable {
		t.Fatalf("POST %d with %d runs in progress: %d, want 503", maxRuns+1, maxRuns, code)
	}
	mu.Lock()
	n := requests
	mu.Unlock()
	if runs := ctl.Runs(); n != maxRuns || len(runs) != maxRuns {
		t.Fatalf("after the refused POST: %d node requests, %d runs; want %d of each", n, len(runs), maxRuns)
	}

	release <- struct{}{} // one run's health probe is refused: that run fails
	deadline := time.Now().Add(10 * time.Second)
	for !slices.ContainsFunc(ctl.Runs(), func(v RunView) bool { return v.Phase == "done" }) {
		if time.Now().After(deadline) {
			t.Fatal("the released run never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if code := post(); code != http.StatusAccepted {
		t.Fatalf("POST after a run finished: %d, want 202", code)
	}
}

func TestRoutesRefuseOtherMethods(t *testing.T) {
	routetest.RefusesOtherMethods(t, newRig(t, 1).ctl.Handler(), map[string][]string{
		"/adapt": {"GET", "POST"},
	})
}

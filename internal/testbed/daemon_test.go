package testbed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// forwarder is a minimal ASP that forwards everything; it passes the
// default network verification policy on any node.
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

// bed is a running in-process 3-daemon testbed: three separate rtnet
// networks in one test process, joined only by real loopback UDP — the
// single-machine stand-in for three hosts.
type bed struct {
	topo    *Topology
	daemons map[string]*Daemon
	base    map[string]string // daemon name -> http://control
}

// freeUDPPorts reserves n distinct loopback UDP ports by binding and
// closing; the remote links rebind them immediately after.
func freeUDPPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = c.LocalAddr().String()
		c.Close()
	}
	return addrs
}

// newBed builds and starts the reference topology: gw on d1, s0 on d2,
// s1 on d3, cross-daemon links gw-s0 and gw-s1. Control APIs listen on
// real TCP sockets so fleet targets resolve through the topology.
func newBed(t *testing.T) *bed {
	t.Helper()
	lns := make(map[string]net.Listener, 3)
	for _, name := range []string{"d1", "d2", "d3"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[name] = ln
	}
	udp := freeUDPPorts(t, 4)
	topo, err := ParseTopology([]byte(fmt.Sprintf(`{
	  "name": "bed",
	  "daemons": [
	    {"name": "d1", "control": %q},
	    {"name": "d2", "control": %q},
	    {"name": "d3", "control": %q}
	  ],
	  "nodes": [
	    {"name": "gw", "addr": "10.0.0.1", "daemon": "d1", "forwarding": true},
	    {"name": "s0", "addr": "10.0.0.2", "daemon": "d2"},
	    {"name": "s1", "addr": "10.0.0.3", "daemon": "d3"}
	  ],
	  "links": [
	    {"a": "gw", "b": "s0", "a_udp": %q, "b_udp": %q},
	    {"a": "gw", "b": "s1", "a_udp": %q, "b_udp": %q}
	  ]
	}`, lns["d1"].Addr(), lns["d2"].Addr(), lns["d3"].Addr(),
		udp[0], udp[1], udp[2], udp[3])))
	if err != nil {
		t.Fatal(err)
	}

	b := &bed{topo: topo, daemons: map[string]*Daemon{}, base: map[string]string{}}
	for name, ln := range lns {
		d, err := NewDaemon(topo, name, Options{
			Events:        testLog(t),
			ProbeInterval: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		d.Start()
		srv := &http.Server{Handler: d.Handler()}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		b.daemons[name] = d
		b.base[name] = "http://" + ln.Addr().String()
	}
	for name, d := range b.daemons {
		if down := d.WaitLinksUp(5 * time.Second); len(down) > 0 {
			t.Fatalf("daemon %s links still down: %v", name, down)
		}
	}
	return b
}

// getJSON decodes a GET response, failing on transport errors.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return body
}

// postJSON posts a body and returns (status, decoded response).
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var decoded map[string]any
	json.Unmarshal(raw, &decoded)
	return resp.StatusCode, decoded
}

// stat reads one metric from a node's /stats on the given daemon.
func (b *bed) stat(t *testing.T, daemon, node, metric string) float64 {
	t.Helper()
	body := getJSON(t, b.base[daemon]+"/node/"+node+"/stats")
	stats, _ := body["stats"].(map[string]any)
	v, _ := stats[metric].(float64)
	return v
}

// inject originates n probe packets from a node toward another node's
// discard port.
func (b *bed) inject(t *testing.T, daemon, from, to string, n int) {
	t.Helper()
	status, body := postJSON(t,
		fmt.Sprintf("%s/inject?from=%s&to=%s&n=%d", b.base[daemon], from, to, n), "")
	if status != http.StatusOK {
		t.Fatalf("inject %s->%s: HTTP %d %v", from, to, status, body)
	}
}

// waitStat polls until the metric satisfies ok or the deadline passes.
func (b *bed) waitStat(t *testing.T, daemon, node, metric string, ok func(float64) bool) float64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var v float64
	for time.Now().Before(deadline) {
		v = b.stat(t, daemon, node, metric)
		if ok(v) {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s/%s %s stuck at %v", daemon, node, metric, v)
	return v
}

// TestBedTrafficAndHealth: the assembled testbed routes real packets
// across daemons (s0 -> gw -> s1 transits two UDP links), and the
// control surfaces report the topology truthfully.
func TestBedTrafficAndHealth(t *testing.T) {
	b := newBed(t)

	// gw -> s0: one cross-daemon hop.
	b.inject(t, "d1", "gw", "s0", 20)
	b.waitStat(t, "d2", "s0", "testbed.s0.rx_pkts", func(v float64) bool { return v >= 20 })

	// s0 -> s1: transits gw, two cross-daemon links, three daemons.
	b.inject(t, "d2", "s0", "s1", 15)
	b.waitStat(t, "d3", "s1", "testbed.s1.rx_pkts", func(v float64) bool { return v >= 15 })

	// /healthz and /links tell the truth about identity and link state.
	h := getJSON(t, b.base["d2"]+"/healthz")
	if h["daemon"] != "d2" || h["testbed"] != "bed" {
		t.Fatalf("healthz identity: %v", h)
	}
	links := getJSON(t, b.base["d1"]+"/links")
	raw, _ := json.Marshal(links["links"])
	var statuses []LinkStatus
	json.Unmarshal(raw, &statuses)
	if len(statuses) != 2 {
		t.Fatalf("d1 should own 2 remote endpoints: %v", links)
	}
	for _, s := range statuses {
		if s.State != "up" || s.Node != "gw" {
			t.Fatalf("link %v not up", s)
		}
	}
}

// TestBedFleetDeployAcrossDaemons: one daemon's /deploy resolves bare
// node names through the topology and runs the two-phase rollout
// against all three daemons' nodes; the deployment history records it.
func TestBedFleetDeployAcrossDaemons(t *testing.T) {
	b := newBed(t)

	resp, err := http.Post(
		b.base["d1"]+"/deploy?version=v1&nodes=gw,s0,s1",
		"text/plain", strings.NewReader(forwarder))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: HTTP %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"activated"`)) && !bytes.Contains(raw, []byte(`"ok"`)) &&
		!bytes.Contains(raw, []byte(`"v1"`)) {
		t.Fatalf("deploy response lacks version: %s", raw)
	}

	// Every node on every daemon now runs v1.
	for daemon, node := range map[string]string{"d1": "gw", "d2": "s0", "d3": "s1"} {
		body := getJSON(t, b.base[daemon]+"/node/"+node+"/asp")
		if body["active"] != "v1" {
			t.Fatalf("%s/%s active = %v, want v1", daemon, node, body["active"])
		}
	}

	// The rollout landed in the coordinating daemon's history.
	hist := getJSON(t, b.base["d1"]+"/deployments")
	raw, _ = json.Marshal(hist)
	if !bytes.Contains(raw, []byte(`"v1"`)) {
		t.Fatalf("deployment history missing v1: %s", raw)
	}
}

// TestBedRemoteChaosPartition: a chaos timeline staged and started
// over HTTP on one daemon blackholes its outbound link direction; the
// far side stops receiving, the sender's fault-drop counter climbs,
// and stop?clear=1 heals it — the remote chaos control plane end to
// end.
func TestBedRemoteChaosPartition(t *testing.T) {
	b := newBed(t)

	timeline := `{"name": "cut", "steps": [{"at_ms": 0, "op": "down", "link": "gw-s0"}]}`
	status, body := postJSON(t, b.base["d1"]+"/chaos/stage", timeline)
	if status != http.StatusOK || body["staged"] != "cut" {
		t.Fatalf("stage: HTTP %d %v", status, body)
	}
	status, body = postJSON(t, b.base["d1"]+"/chaos/start?name=cut", "")
	if status != http.StatusOK || body["started"] != "cut" {
		t.Fatalf("start: HTTP %d %v", status, body)
	}

	// The at_ms: 0 step is applied before /chaos/start answers.
	if down := b.stat(t, "d1", "gw", "chaos.link_down"); down != 1 {
		t.Fatalf("chaos.link_down = %v right after /chaos/start, want 1", down)
	}

	// The partition is data-plane only: injected packets die at the
	// faulted interface while the handshake stays up.
	before := b.stat(t, "d2", "s0", "testbed.s0.rx_pkts")
	b.inject(t, "d1", "gw", "s0", 25)
	b.waitStat(t, "d1", "gw", "link.gw:s0.fault_dropped_pkts",
		func(v float64) bool { return v >= 25 })
	if after := b.stat(t, "d2", "s0", "testbed.s0.rx_pkts"); after != before {
		t.Fatalf("partitioned link delivered packets: %v -> %v", before, after)
	}

	// Status reports the run as done (single immediate step).
	st := getJSON(t, b.base["d1"]+"/chaos/status")
	raw, _ := json.Marshal(st)
	if !bytes.Contains(raw, []byte(`"cut"`)) {
		t.Fatalf("chaos status missing run: %s", raw)
	}

	// stop?clear=1 heals: traffic flows again.
	status, _ = postJSON(t, b.base["d1"]+"/chaos/stop?clear=1", "")
	if status != http.StatusOK {
		t.Fatalf("stop: HTTP %d", status)
	}
	b.inject(t, "d1", "gw", "s0", 10)
	b.waitStat(t, "d2", "s0", "testbed.s0.rx_pkts",
		func(v float64) bool { return v >= before+10 })
}

// TestBedCanaryPromoteAndChaosRollback is the issue's acceptance
// scenario in-process: a healthy canary on the gateway self-promotes;
// a second canary under a remotely-injected partition trips its guard
// and auto-rolls-back, all recorded in the fleet history.
func TestBedCanaryPromoteAndChaosRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window canary run")
	}
	b := newBed(t)

	// Baseline: v1 everywhere.
	resp, err := http.Post(b.base["d1"]+"/deploy?version=v1&nodes=gw,s0,s1",
		"text/plain", strings.NewReader(forwarder))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline deploy: HTTP %d", resp.StatusCode)
	}

	// Background probe traffic gw -> s0 keeps the guarded link metric
	// live through both canary runs.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				http.Post(b.base["d1"]+"/inject?from=gw&to=s0&n=5", "", nil)
			}
		}
	}()

	canary := func(version, source string) map[string]any {
		req := map[string]any{
			"version": version,
			"source":  source,
			"canary":  []map[string]string{{"name": "gw", "url": b.base["d1"] + "/node/gw"}},
			"baseline": []map[string]string{
				{"name": "s0", "url": b.base["d2"] + "/node/s0"},
				{"name": "s1", "url": b.base["d3"] + "/node/s1"},
			},
			"guards":      []string{"link.gw:s0.fault_dropped_pkts<=0.5"},
			"windows":     2,
			"interval_ms": 250,
			"timeout_ms":  20000,
		}
		raw, _ := json.Marshal(req)
		status, body := postJSON(t, b.base["d1"]+"/adapt", string(raw))
		if status != http.StatusAccepted {
			t.Fatalf("adapt %s: HTTP %d %v", version, status, body)
		}
		// Poll GET /adapt until this run reports a verdict.
		deadline := time.Now().Add(25 * time.Second)
		for time.Now().Before(deadline) {
			runs, _ := getJSON(t, b.base["d1"]+"/adapt")["runs"].([]any)
			for _, r := range runs {
				run, _ := r.(map[string]any)
				if run["version"] == version && run["verdict"] != nil && run["verdict"] != "" {
					return run
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("canary %s never finished", version)
		return nil
	}

	// Healthy canary: clean link, guard passes, v2 self-promotes.
	run := canary("v2", forwarderV2)
	if run["verdict"] != "promoted" {
		t.Fatalf("healthy canary verdict = %v (%v)", run["verdict"], run["reason"])
	}
	gw := getJSON(t, b.base["d1"]+"/node/gw/asp")
	if gw["active"] != "v2" {
		t.Fatalf("gw active = %v after promotion, want v2", gw["active"])
	}

	// Remote partition during the second canary: the guard watches the
	// gw->s0 link's fault drops, chaos blackholes that exact direction,
	// and the controller rolls the canary back on its own.
	timeline := `{"name": "part", "steps": [{"at_ms": 0, "op": "down", "link": "gw-s0"}]}`
	if status, body := postJSON(t, b.base["d1"]+"/chaos/start", timeline); status != http.StatusOK {
		t.Fatalf("chaos start: HTTP %d %v", status, body)
	}
	run = canary("v3", forwarder)
	if run["verdict"] != "rolled-back" {
		t.Fatalf("partitioned canary verdict = %v (%v)", run["verdict"], run["reason"])
	}
	gw = getJSON(t, b.base["d1"]+"/node/gw/asp")
	if gw["active"] != "v2" {
		t.Fatalf("gw active = %v after rollback, want v2", gw["active"])
	}

	// Heal and confirm the history holds the whole story: deploy,
	// canary, promote, canary, rollback.
	postJSON(t, b.base["d1"]+"/chaos/stop?clear=1", "")
	hist, _ := json.Marshal(getJSON(t, b.base["d1"]+"/deployments"))
	for _, want := range []string{`"v1"`, `"v2"`, `"v3"`} {
		if !bytes.Contains(hist, []byte(want)) {
			t.Fatalf("history missing %s: %s", want, hist)
		}
	}
}

// TestBedReconnectKeepsHistory: restarting one daemon brings its links
// back (the peers log a reconnect, not a timeout-limbo), and the
// surviving coordinator's deployment history is untouched — a
// redeploy to the restarted node succeeds against the same topology
// file.
func TestBedReconnectKeepsHistory(t *testing.T) {
	b := newBed(t)

	// v1 on s0 via d1's coordinator.
	resp, err := http.Post(b.base["d1"]+"/deploy?version=v1&nodes=s0",
		"text/plain", strings.NewReader(forwarder))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: HTTP %d", resp.StatusCode)
	}

	// Restart d3 (s1's daemon): close it, then rebuild from the same
	// topology. The gw-s1 link must come back up on its own; the UDP
	// port is fixed by the topology file, so retry construction while
	// the kernel releases it.
	b.daemons["d3"].Close()
	var d3 *Daemon
	deadline := time.Now().Add(5 * time.Second)
	for {
		d3, err = NewDaemon(b.topo, "d3", Options{Events: testLog(t), ProbeInterval: 25 * time.Millisecond})
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebuild d3: %v", err)
	}
	t.Cleanup(d3.Close)
	d3.Start()
	if down := d3.WaitLinksUp(5 * time.Second); len(down) > 0 {
		t.Fatalf("links did not re-handshake after restart: %v", down)
	}
	// The surviving side counted a reconnect (new session, same peer).
	b.waitStat(t, "d1", "gw", "rtnet.reconnects", func(v float64) bool { return v >= 1 })

	// d1's history survived and still coordinates: v2 to s0 again.
	hist, _ := json.Marshal(getJSON(t, b.base["d1"]+"/deployments"))
	if !bytes.Contains(hist, []byte(`"v1"`)) {
		t.Fatalf("history lost v1 across peer restart: %s", hist)
	}
	resp, err = http.Post(b.base["d1"]+"/deploy?version=v2&nodes=s0",
		"text/plain", strings.NewReader(forwarderV2))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("redeploy after restart: HTTP %d", resp.StatusCode)
	}
	body := getJSON(t, b.base["d2"]+"/node/s0/asp")
	if body["active"] != "v2" || body["prev"] != "v1" {
		t.Fatalf("s0 state after upgrade = %v", body)
	}
}

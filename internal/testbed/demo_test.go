package testbed

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/routetest"
	"planp.dev/planp/internal/substrate"
)

// testLog logs the controllers' decisions to the test's output.
func testLog(t *testing.T) obs.Subscriber {
	return obs.Func(func(e obs.Event) { t.Log(e.String()) })
}

// lockedBuffer is a bytes.Buffer the test goroutine may read while a
// controller writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDemo boots the built-in §3.2 topology and serves its full
// control plane over real HTTP. gateway is the gateway node's mount
// under Daemon.Handler() — the URL operators and the fleet controller
// address.
func startDemo(t *testing.T, opts Options) (demo *Demo, gateway string) {
	t.Helper()
	demo, err := NewDemo("", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(demo.Close)
	demo.Start()
	ctl := httptest.NewServer(demo.Handler())
	t.Cleanup(ctl.Close)
	return demo, ctl.URL + "/node/gateway"
}

// driveE2E runs the full live-download story against a cluster: boot the
// nodes, download the load-balancing ASP onto the RUNNING gateway over
// real HTTP, fire requests at the virtual server, and check they were
// answered by both physical servers with responses masqueraded as the
// virtual one.
func driveE2E(t *testing.T, udp bool) {
	cluster, gateway := startDemo(t, Options{UDP: udp})

	// The daemon is alive and no protocol is installed yet.
	var health struct {
		OK   bool   `json:"ok"`
		Node string `json:"node"`
		ASP  bool   `json:"asp"`
	}
	getJSONInto(t, gateway+"/healthz", &health)
	if !health.OK || health.Node != "gateway" || health.ASP {
		t.Fatalf("unexpected health: %+v", health)
	}

	// Download the gateway ASP onto the live node.
	resp, err := http.Post(gateway+"/asp?verify=single", "text/plain",
		strings.NewReader(asp.HTTPGateway))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /asp: %d: %s", resp.StatusCode, body)
	}
	getJSONInto(t, gateway+"/healthz", &health)
	if !health.ASP {
		t.Fatalf("healthz does not report the installed protocol")
	}

	// A second download must be refused while one is installed.
	resp, err = http.Post(gateway+"/asp?verify=single", "text/plain",
		strings.NewReader(asp.HTTPGateway))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second POST /asp: got %d, want 409", resp.StatusCode)
	}

	// Serve real traffic through the downloaded protocol.
	const requests = 120
	for i := 0; i < requests; i++ {
		cluster.SendRequest(uint16(20000 + i))
	}
	if !cluster.Net.Quiesce(20 * time.Second) {
		t.Fatalf("cluster did not quiesce")
	}

	s0, s1 := cluster.Served()
	if s0+s1 < 100 {
		t.Fatalf("servers answered %d+%d requests, want >= 100 of %d", s0, s1, requests)
	}
	if s0 == 0 || s1 == 0 {
		t.Fatalf("load balancing failed: server0=%d server1=%d", s0, s1)
	}
	total, fromVirtual := cluster.Responses()
	if fromVirtual < 100 {
		t.Fatalf("client saw %d responses, only %d from the virtual server", total, fromVirtual)
	}

	// The stats endpoint reflects the traffic and stamps the snapshot
	// with a monotonic timestamp for windowed-rate pollers.
	var stats struct {
		Node   string           `json:"node"`
		MonoNS int64            `json:"mono_ns"`
		Stats  map[string]int64 `json:"stats"`
	}
	getJSONInto(t, gateway+"/stats", &stats)
	if stats.Stats["node.gateway.received_pkts"] == 0 {
		t.Fatalf("stats show no gateway traffic: %v", stats.Stats)
	}
	if stats.MonoNS <= 0 {
		t.Fatalf("stats snapshot missing monotonic timestamp: %d", stats.MonoNS)
	}

	// Withdraw the protocol: the cluster falls back to dumb forwarding,
	// so new requests to the virtual address go unanswered.
	req, _ := http.NewRequest(http.MethodDelete, gateway+"/asp", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /asp: %d", resp.StatusCode)
	}
	getJSONInto(t, gateway+"/healthz", &health)
	if health.ASP {
		t.Fatalf("healthz still reports a protocol after DELETE")
	}
	before0, before1 := cluster.Served()
	cluster.SendRequest(30000)
	cluster.Net.Quiesce(5 * time.Second)
	after0, after1 := cluster.Served()
	if after0 != before0 || after1 != before1 {
		t.Fatalf("requests still balanced after uninstall")
	}
}

// TestGatewayDownloadE2E: in-process channel links.
func TestGatewayDownloadE2E(t *testing.T) {
	driveE2E(t, false)
}

// TestGatewayDownloadE2E_UDP: the same story over loopback-UDP socket
// links — the packets really cross the kernel.
func TestGatewayDownloadE2E_UDP(t *testing.T) {
	driveE2E(t, true)
}

// TestInstallRejectsBrokenProtocol: the download pipeline's late
// checking surfaces as an HTTP-level rejection, not an install.
func TestInstallRejectsBrokenProtocol(t *testing.T) {
	cluster, gateway := startDemo(t, Options{})

	resp, err := http.Post(gateway+"/asp", "text/plain",
		strings.NewReader("fun broken( : int = nonsense"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken protocol: got %d, want 422", resp.StatusCode)
	}
	if cluster.Node("gateway").CurrentProcessor() != nil {
		t.Fatalf("broken protocol ended up installed")
	}
}

// getJSONInto decodes a 200 GET response into v.
func getJSONInto(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestDemoTopology: `planpd serve` is a topology like any other. The
// embedded file passes the strict decoder and validation, names exactly
// the links the chaos docs and timelines use, and assembles into the
// §3.2 routing: unrewritten virtual-server traffic heads clusterward
// via server0.
func TestDemoTopology(t *testing.T) {
	topo, err := ParseTopology(demoJSON)
	if err != nil {
		t.Fatalf("embedded demo topology: %v", err)
	}
	if len(topo.Daemons) != 1 {
		t.Fatalf("demo topology has %d daemons, want 1", len(topo.Daemons))
	}
	var links []string
	for _, l := range topo.Links {
		links = append(links, l.Name())
	}
	if got, want := strings.Join(links, " "), "client-gateway gateway-server0 gateway-server1"; got != want {
		t.Errorf("links = %q, want %q", got, want)
	}

	demo, err := NewDemo("127.0.0.1:1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer demo.Close()
	if demo.Spec.Control != "127.0.0.1:1" {
		t.Errorf("control = %q, want the override", demo.Spec.Control)
	}
	if got := strings.Join(demo.NodeNames(), " "); got != "client gateway server0 server1" {
		t.Errorf("nodes = %q", got)
	}
	gw := demo.Node("gateway")
	via0, via1 := gw.Route(httpd.Server0Addr), gw.Route(httpd.Server1Addr)
	if via0 == nil || via1 == nil || via0 == via1 {
		t.Fatalf("gateway routes to the servers: %v, %v (addresses must match package httpd)", via0, via1)
	}
	if got := gw.Route(httpd.VirtualAddr); got != via0 {
		t.Errorf("gateway routes the virtual address via %v, want server0's interface %v", got, via0)
	}
}

// TestDemoRequestPortsStayInRange: POST /demo/requests at its largest
// n sends from source ports 10000–65535 only, reusing them in turn, so
// the gateway's tap sees requests and none from a port below 10000.
func TestDemoRequestPortsStayInRange(t *testing.T) {
	demo, gateway := startDemo(t, Options{})
	var seen, low atomic.Int64
	demo.Node("gateway").Tap(func(p *substrate.Packet) {
		if p.TCP != nil && p.IP.Dst == httpd.VirtualAddr {
			seen.Add(1)
			if p.TCP.SrcPort < 10000 {
				low.Add(1)
			}
		}
	})
	resp, err := http.Post(strings.TrimSuffix(gateway, "/node/gateway")+"/demo/requests?n=65536", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /demo/requests: HTTP %d", resp.StatusCode)
	}
	if seen.Load() == 0 || low.Load() != 0 {
		t.Fatalf("gateway saw %d requests, %d from a port below 10000; want some, none", seen.Load(), low.Load())
	}
}

// TestDemoBurstCountsDrops: POST /demo/requests at its largest n
// accounts for every request. The client fires faster than the gateway
// drains, so the links drop most of the burst, and the answer's
// "dropped" (the burst's change in link.*.dropped_pkts) counts them.
// A request dropped on its way to a server is one drop; so is a
// response dropped on its way back, after its server counted the
// request. So every request reaches the client as a response or is
// dropped, and server0 + server1 + dropped exceeds n by exactly the
// responses lost on the way back, server0 + server1 - responses.
func TestDemoBurstCountsDrops(t *testing.T) {
	_, gateway := startDemo(t, Options{})
	resp, err := http.Post(gateway+"/asp?verify=single", "text/plain", strings.NewReader(asp.HTTPGateway))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /asp: HTTP %d", resp.StatusCode)
	}
	const n = 1 << 16
	status, got := postJSON(t, strings.TrimSuffix(gateway, "/node/gateway")+"/demo/requests?n=65536", "")
	if status != http.StatusOK || got["settled"] != true {
		t.Fatalf("POST /demo/requests: HTTP %d %v", status, got)
	}
	s0, s1, dropped := got["server0"].(float64), got["server1"].(float64), got["dropped"].(float64)
	responses := got["responses"].(float64)
	if dropped == 0 || s0+s1+dropped-n != s0+s1-responses || responses > s0+s1 {
		t.Fatalf("server0 %v + server1 %v + dropped %v - %d != server0 + server1 - responses %v (or none dropped): %v",
			s0, s1, dropped, n, responses, got)
	}
}

// TestDemoBurstCountsPerBurst: every count POST /demo/requests answers
// is the burst's own, so a second burst on the same daemon again
// answers server0 + server1 == n, and from_virtual == n.
func TestDemoBurstCountsPerBurst(t *testing.T) {
	_, gateway := startDemo(t, Options{})
	if status, got := postJSON(t, gateway+"/asp?verify=single", asp.HTTPGateway); status != http.StatusOK {
		t.Fatalf("POST /asp: HTTP %d %v", status, got)
	}
	const n = 200
	for burst := 1; burst <= 2; burst++ {
		status, got := postJSON(t, strings.TrimSuffix(gateway, "/node/gateway")+"/demo/requests?n=200", "")
		if status != http.StatusOK || got["settled"] != true || got["dropped"] != 0.0 {
			t.Fatalf("burst %d: HTTP %d %v", burst, status, got)
		}
		s0, s1 := got["server0"].(float64), got["server1"].(float64)
		if s0+s1 != n || got["responses"] != float64(n) || got["from_virtual"] != float64(n) {
			t.Fatalf("burst %d: server0 %v + server1 %v, responses %v, from_virtual %v; want each burst's own %d",
				burst, s0, s1, got["responses"], got["from_virtual"], n)
		}
	}
}

// TestDemoDeployDecisionLog: a TextLog subscribed through
// Options.Events prints a deployment's decisions as it makes them: a
// rollout through POST /deploy prints its start line, then its
// "active … on all" line, each naming the deployment's record.
func TestDemoDeployDecisionLog(t *testing.T) {
	var log lockedBuffer
	_, gateway := startDemo(t, Options{Events: obs.NewTextLog(&log)})
	status, got := postJSON(t, strings.TrimSuffix(gateway, "/node/gateway")+
		"/deploy?version=v1&verify=single&nodes="+url.QueryEscape("gateway="+gateway), asp.HTTPGateway)
	if status != http.StatusOK {
		t.Fatalf("POST /deploy: HTTP %d %v", status, got)
	}
	text := log.String()
	start := strings.Index(text, " deploy                   d1 start: version v1 to 1 node(s)\n")
	active := strings.Index(text, " deploy                   d1 active: version v1 on all 1 node(s)\n")
	if start < 0 || active < start {
		t.Fatalf("decision log lacks the start line, then the active line, of d1:\n%s", text)
	}
	if !strings.Contains(text[start:active], " deploy        gateway    d1 activate:ok\n") {
		t.Errorf("decision log lacks the gateway's activation between them:\n%s", text)
	}
}

// TestDemoDeployUnknownNode: a bare node name the topology does not
// have is refused up front, naming the topology — not turned into a
// target URL that 404s mid-rollout — and so is every other request no
// rollout could take.
func TestDemoDeployUnknownNode(t *testing.T) {
	demo, err := NewDemo("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer demo.Close()
	rec := httptest.NewRecorder()
	demo.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/deploy?nodes=gateway,nosuch", strings.NewReader(asp.HTTPGateway)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /deploy?nodes=…,nosuch: %d, want 400", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"nosuch"`) || !strings.Contains(body, `topology "demo"`) {
		t.Errorf("rejection does not name the node and the topology: %q", body)
	}
	// So is a list no rollout could take: a 400 naming the fault, where it
	// used to reach Deploy and come back a 409 Conflict.
	for query, want := range map[string]string{
		"gateway,gateway":       `duplicate target name "gateway"`,
		"=http://x":             "needs both name and URL",
		"gateway,server0=":      "needs both name and URL",
		"server0,server0=http:": `duplicate target name "server0"`,
	} {
		rec := httptest.NewRecorder()
		demo.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			"/deploy?nodes="+url.QueryEscape(query), strings.NewReader(asp.HTTPGateway)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("POST /deploy?nodes=%s: %d %q, want 400 naming %q", query, rec.Code, rec.Body.String(), want)
		}
	}
	if len(demo.Fleet.Deployments()) != 0 {
		t.Error("a rollout was recorded for an unresolvable target list")
	}
	// A request Deploy refuses before it records anything is a 400 as
	// well, not a 409 Conflict a client would retry as a rollout race.
	// The target counts every request that reaches it: none may.
	var calls atomic.Int32
	node := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { calls.Add(1) }))
	defer node.Close()
	for query, want := range map[string]string{
		"engine=bytecode": `unknown engine "bytecode"`,
		"engine=nosuch":   `unknown engine "nosuch"`,
		"verify=bogus":    `unknown verify policy "bogus"`,
	} {
		rec := httptest.NewRecorder()
		demo.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			"/deploy?"+query+"&nodes="+url.QueryEscape("gateway="+node.URL), strings.NewReader(asp.HTTPGateway)))
		var resp DeployResponse
		err := json.Unmarshal(rec.Body.Bytes(), &resp)
		if rec.Code != http.StatusBadRequest || err != nil || !strings.Contains(resp.Error, want) {
			t.Errorf("POST /deploy?%s: %d %q, want 400 naming %q", query, rec.Code, rec.Body.String(), want)
		}
		if n := len(demo.Fleet.Deployments()); n != 0 {
			t.Errorf("POST /deploy?%s recorded %d rollout(s), want none", query, n)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("POST /deploy?%s called the node %d time(s), want none", query, n)
		}
	}
}

// TestDaemonStatsCarryControllerCounters: the daemon's fleet and adapt
// controllers count into the nodes' registry, so a node's GET /stats
// shows the rollouts DEPLOYMENT.md promises there.
func TestDaemonStatsCarryControllerCounters(t *testing.T) {
	_, gateway := startDemo(t, Options{})
	ctl := strings.TrimSuffix(gateway, "/node/gateway")
	resp, err := http.Post(ctl+"/deploy?version=v1&verify=single&nodes=gateway="+url.QueryEscape(gateway),
		"text/plain", strings.NewReader(asp.HTTPGateway))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /deploy: %d: %s", resp.StatusCode, body)
	}
	var stats struct {
		Stats map[string]int64 `json:"stats"`
	}
	getJSONInto(t, gateway+"/stats", &stats)
	if got := stats.Stats["fleet.deployments"]; got != 1 {
		t.Errorf("fleet.deployments = %d, want 1", got)
	}
	if _, ok := stats.Stats["adapt.canaries"]; !ok {
		t.Errorf("no adapt.canaries in the gateway's /stats: %v", stats.Stats)
	}
}

// TestRoutesRefuseOtherMethods walks the daemon's whole control plane
// as the demo serves it — its own routes, the demo's, and every mux it
// mounts (per-node planpd, fleet history, adapt, chaos) through the
// mount.
func TestRoutesRefuseOtherMethods(t *testing.T) {
	demo, err := NewDemo("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer demo.Close()
	routetest.RefusesOtherMethods(t, demo.Handler(), map[string][]string{
		"/deploy":                 {"POST"},
		"/inject":                 {"POST"},
		"/links":                  {"GET"},
		"/healthz":                {"GET"},
		"/demo/requests":          {"POST"},
		"/deployments":            {"GET"},
		"/adapt":                  {"GET", "POST"},
		"/chaos/stage":            {"POST"},
		"/chaos/status":           {"GET"},
		"/node/gateway/asp":       {"GET", "POST", "DELETE"},
		"/node/server0/asp/stage": {"POST", "DELETE"},
		"/node/server1/healthz":   {"GET"},
	})
}

// TestDeployOversizedSource: /deploy answers an upload over its 1 MiB
// bound like every other upload route — 413, nothing rolled out.
func TestDeployOversizedSource(t *testing.T) {
	demo, err := NewDemo("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer demo.Close()
	rec := httptest.NewRecorder()
	demo.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/deploy?nodes=gateway", strings.NewReader(strings.Repeat(" ", 1<<20+1))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /deploy with 1 MiB + 1 byte: %d, want 413", rec.Code)
	}
	if len(demo.Fleet.Deployments()) != 0 {
		t.Error("a rollout was recorded for an oversized upload")
	}
}

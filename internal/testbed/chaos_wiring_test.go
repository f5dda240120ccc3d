package testbed

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"planp.dev/planp/internal/apps/audio"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/apps/mpeg"
	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// twoDaemonTopo spans two daemons: d1 hosts a router and a segment with
// two members, d2 a host the router reaches over a cross-daemon link.
const twoDaemonTopo = `{
  "name": "two",
  "daemons": [
    {"name": "d1", "control": "127.0.0.1:18011"},
    {"name": "d2", "control": "127.0.0.1:18012"}
  ],
  "nodes": [
    {"name": "r", "addr": "10.0.0.1", "daemon": "d1", "forwarding": true},
    {"name": "m0", "addr": "10.0.1.1", "daemon": "d1"},
    {"name": "m1", "addr": "10.0.1.2", "daemon": "d1"},
    {"name": "far", "addr": "10.0.2.1", "daemon": "d2"}
  ],
  "links": [{"a": "r", "b": "far", "a_udp": "127.0.0.1:18111", "b_udp": "127.0.0.1:18112"}],
  "segments": [{"name": "lan", "bandwidth_bps": 10000000, "members": ["r", "m0", "m1"]}]
}`

// wantWiring returns, sorted, the names an engine wired to site's share
// of t must hold: every link with an end on the site and every segment
// with a member on it, and every node it hosts ("" hosts all of t).
func wantWiring(t *substrate.Topology, site string) (links, nodes []string) {
	hosted := func(name string) bool {
		i := slices.IndexFunc(t.Nodes, func(n substrate.NodeSpec) bool { return n.Name == name })
		return site == "" || t.Nodes[i].Site == site
	}
	for _, l := range t.Links {
		if hosted(l.A) || hosted(l.B) {
			links = append(links, l.Name())
		}
	}
	for _, s := range t.Segments {
		if slices.ContainsFunc(s.Members, hosted) {
			links = append(links, s.Name)
		}
	}
	for _, n := range t.Nodes {
		if hosted(n.Name) {
			nodes = append(nodes, n.Name)
		}
	}
	sort.Strings(links)
	sort.Strings(nodes)
	return links, nodes
}

func checkWiring(t *testing.T, eng *chaos.Engine, topo *substrate.Topology, site string) {
	t.Helper()
	links, nodes := wantWiring(topo, site)
	if got := eng.LinkNames(); !slices.Equal(got, links) {
		t.Errorf("LinkNames() = %v, want %v", got, links)
	}
	if got := eng.NodeNames(); !slices.Equal(got, nodes) {
		t.Errorf("NodeNames() = %v, want %v", got, nodes)
	}
}

// TestChaosWiresWhatWasBuilt: on every in-tree topology, built whole on
// each backend and per daemon by NewDaemon, the chaos engine holds
// exactly the links and segments the site built and the nodes it
// hosts — a cross-daemon link on both of its daemons.
func TestChaosWiresWhatWasBuilt(t *testing.T) {
	demo, err := ParseTopology(demoJSON)
	if err != nil {
		t.Fatal(err)
	}
	two, err := ParseTopology([]byte(twoDaemonTopo))
	if err != nil {
		t.Fatal(err)
	}
	whole := []struct {
		name string
		topo *substrate.Topology
	}{
		{"figure5", &audio.Figure5},
		{"cluster", &httpd.Cluster},
		{"mpeg", mpeg.Topology(2, true)},
		{"demo", &demo.Topology},
		{"two-daemon", &two.Topology},
	}
	for _, tc := range whole {
		t.Run(tc.name+"/netsim", func(t *testing.T) {
			sim := netsim.New()
			b, err := netsim.Build(sim, tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			checkWiring(t, chaos.New(sim, tc.topo, b.Built, 1), tc.topo, "")
		})
		t.Run(tc.name+"/rtnet", func(t *testing.T) {
			nw := rtnet.New(1)
			defer nw.Close()
			b, err := rtnet.Build(nw, tc.topo, false)
			if err != nil {
				t.Fatal(err)
			}
			checkWiring(t, chaos.New(nw, tc.topo, b, 1), tc.topo, "")
		})
	}
	for _, topo := range []*Topology{demo, two} {
		for _, ds := range topo.Daemons {
			t.Run(topo.Name+"/daemon-"+ds.Name, func(t *testing.T) {
				d, err := NewDaemon(topo, ds.Name, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				checkWiring(t, d.Chaos, &topo.Topology, ds.Name)
			})
		}
	}
}

// TestSegmentIsFaultable: a testbed file's segment is a chaos link under
// its own name — GET /chaos/status lists it, a loss timeline on it
// stages and starts, and it drops what crosses the segment.
func TestSegmentIsFaultable(t *testing.T) {
	topo, err := ParseTopology([]byte(groupTopo))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(topo, "d1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Start()
	h := d.Handler()
	do := func(method, target, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d %s", method, target, w.Code, w.Body)
		}
		return w
	}

	var status struct {
		Links []string `json:"links"`
	}
	if err := json.Unmarshal(do(http.MethodGet, "/chaos/status", "").Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(status.Links, []string{"lan", "src-r"}) {
		t.Fatalf("/chaos/status links = %v, want [lan src-r]", status.Links)
	}

	do(http.MethodPost, "/chaos/stage", `{"name": "lossy", "steps": [{"op": "loss", "link": "lan", "p": 1}]}`)
	do(http.MethodPost, "/chaos/start?name=lossy", "")
	do(http.MethodPost, "/inject?from=src&to=m0&n=20", "")
	if !d.Net.Quiesce(5 * time.Second) {
		t.Fatal("the testbed did not quiesce")
	}
	snap := d.Net.Metrics().Snapshot()
	if snap["link.lan.fault_dropped_pkts"] != 20 || snap["testbed.m0.rx_pkts"] != 0 {
		t.Fatalf("link.lan.fault_dropped_pkts = %v, m0 received %v; want 20, 0",
			snap["link.lan.fault_dropped_pkts"], snap["testbed.m0.rx_pkts"])
	}
}

package testbed

import (
	"strings"
	"testing"
	"time"

	"planp.dev/planp/internal/substrate"
)

// validTopo is the reference 3-daemon topology used across the tests:
// a gateway on one daemon and a server on each of two others, with the
// two cross-daemon links on loopback UDP.
const validTopo = `{
  "name": "t",
  "daemons": [
    {"name": "d1", "control": "127.0.0.1:18001"},
    {"name": "d2", "control": "127.0.0.1:18002"},
    {"name": "d3", "control": "127.0.0.1:18003"}
  ],
  "nodes": [
    {"name": "gw", "addr": "10.0.0.1", "daemon": "d1", "forwarding": true},
    {"name": "s0", "addr": "10.0.0.2", "daemon": "d2"},
    {"name": "s1", "addr": "10.0.0.3", "daemon": "d3"}
  ],
  "links": [
    {"a": "gw", "b": "s0", "a_udp": "127.0.0.1:18101", "b_udp": "127.0.0.1:18102"},
    {"a": "gw", "b": "s1", "a_udp": "127.0.0.1:18103", "b_udp": "127.0.0.1:18104"}
  ]
}`

func TestParseTopology(t *testing.T) {
	topo, err := ParseTopology([]byte(validTopo))
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "t" || len(topo.Daemons) != 3 || len(topo.Nodes) != 3 || len(topo.Links) != 2 {
		t.Fatalf("unexpected shape: %+v", topo)
	}
	if name := topo.Links[0].Name(); name != "gw-s0" {
		t.Fatalf("link name = %q, want gw-s0", name)
	}
	if bw := topo.Links[0].Bandwidth; bw != DefaultBandwidth {
		t.Fatalf("defaulted bandwidth = %d", bw)
	}
	if url, ok := topo.NodeURL("s1"); !ok || url != "http://127.0.0.1:18003/node/s1" {
		t.Fatalf("NodeURL(s1) = %q, %v", url, ok)
	}
}

// mutateTopo returns validTopo with the first from replaced by to.
func mutateTopo(from, to string) string {
	s := strings.Replace(validTopo, from, to, 1)
	if s == validTopo {
		panic("topology mutation not applied: " + from)
	}
	return s
}

// withRoute returns validTopo plus one explicit route.
func withRoute(node, dst, via string) string {
	return mutateTopo(`"links": [`, `"routes": [{"node": "`+node+`", "dst": "`+dst+`", "via": "`+via+`"}], "links": [`)
}

// malformedTopos is one malformed topology per decode and validate
// error, with what the error must mention: the table of
// TestTopologyValidation and the seed corpus of FuzzParseTopology.
var malformedTopos = []struct {
	name, topo, want string
}{
	{"unknown-field", mutateTopo(`"name": "t"`, `"name": "t", "nmae": "x"`), "unknown field"},
	{"trailing-data", validTopo + `{}`, "trailing data"},
	{"no-daemons", `{"name":"t","daemons":[],"nodes":[],"links":[]}`, "no daemons"},
	{"no-nodes", `{"name":"t","daemons":[{"name":"d","control":"c"}],"nodes":[],"links":[]}`, "no nodes"},
	{"unnamed-daemon", mutateTopo(`"name": "d1", "control": "127.0.0.1:18001"`, `"name": "", "control": ""`), "needs name and control"},
	{"dup-daemon", mutateTopo(`"name": "d2"`, `"name": "d1"`), "duplicate daemon"},
	{"unnamed-node", mutateTopo(`"name": "gw"`, `"name": ""`), `node name ""`},
	{"wildcard-node-name", mutateTopo(`"name": "s0"`, `"name": "{srv"`), `node name "{srv"`},
	{"separator-in-daemon-name", mutateTopo(`"name": "d2"`, `"name": "d:2"`), `daemon name "d:2"`},
	{"dup-node", mutateTopo(`"name": "s0"`, `"name": "gw"`), "duplicate node"},
	{"unknown-daemon", mutateTopo(`"daemon": "d2"`, `"daemon": "dX"`), "unknown daemon"},
	{"bad-addr", mutateTopo(`"addr": "10.0.0.2"`, `"addr": "banana"`), "s0"},
	{"dup-addr", mutateTopo(`"addr": "10.0.0.2"`, `"addr": "10.0.0.1"`), "share address"},
	{"dup-addr-respelled", mutateTopo(`"addr": "10.0.0.2"`, `"addr": "010.0.0.1"`), "share address"},
	{"unknown-link-node", mutateTopo(`"a": "gw", "b": "s0"`, `"a": "gw", "b": "sX"`), "unknown node"},
	{"self-link", mutateTopo(`"a": "gw", "b": "s0"`, `"a": "gw", "b": "gw"`), "itself"},
	{"dup-link-reversed", mutateTopo(`"a": "gw", "b": "s1"`, `"a": "s0", "b": "gw"`), "duplicate link"},
	{"missing-udp", mutateTopo(`"a_udp": "127.0.0.1:18101", `, ``), "needs a_udp and b_udp"},
	{"local-link-with-udp", mutateTopo(`"daemon": "d2"`, `"daemon": "d1"`), "daemon-local"},
	{"route-on-unknown", withRoute("sX", "10.0.0.9", "gw"), "route on unknown node"},
	{"route-via-unknown", withRoute("gw", "10.0.0.9", "sX"), "route via unknown node"},
	{"route-bad-dst", withRoute("gw", "10.0.0", "s0"), "malformed address"},
	{"route-not-adjacent", withRoute("s0", "10.0.0.9", "s1"), "not adjacent"},
	{"negative-bandwidth", mutateTopo(`"a": "gw", "b": "s0"`, `"a": "gw", "b": "s0", "bandwidth_bps": -1`), `link "gw-s0" needs a bandwidth`},
	{"segment-spans-daemons", withSegment("srv", "gw", "s0"), `segment "srv" spans daemons "d1" and "d2"`},
	{"segment-name", withSegment("{srv", "gw"), `segment name "{srv"`},
}

// withSegment returns validTopo plus one segment of the given members.
func withSegment(name string, members ...string) string {
	return mutateTopo(`"links": [`, `"segments": [{"name": "`+name+`", "bandwidth_bps": 1000000, "members": ["`+strings.Join(members, `", "`)+`"]}], "links": [`)
}

// TestTopologyValidation: every malformed topology is a structured
// parse-time error naming the offending element.
func TestTopologyValidation(t *testing.T) {
	for _, tc := range malformedTopos {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology([]byte(tc.topo))
			if err == nil {
				t.Fatalf("accepted invalid topology")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDefaultRouteLeavesViaNeighbor: a route to 0.0.0.0 is the node's
// default route, so on a multi-homed node a packet to an address no
// route covers leaves through the neighbor the route names.
func TestDefaultRouteLeavesViaNeighbor(t *testing.T) {
	topo, err := ParseTopology([]byte(`{
  "name": "dflt",
  "daemons": [{"name": "d1", "control": "127.0.0.1:18001"}],
  "nodes": [
    {"name": "gw", "addr": "10.0.0.1", "daemon": "d1", "forwarding": true},
    {"name": "s0", "addr": "10.0.0.2", "daemon": "d1"},
    {"name": "s1", "addr": "10.0.0.3", "daemon": "d1"}
  ],
  "links": [{"a": "gw", "b": "s0"}, {"a": "gw", "b": "s1"}],
  "routes": [{"node": "gw", "dst": "0.0.0.0", "via": "s1"}]
}`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(topo, "d1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Start()
	gw := d.Node("gw")
	gw.Send(substrate.NewUDP(gw.Address(), substrate.MustAddr("192.0.2.9"), 9, discardPort, nil).Own())
	if !d.Net.Quiesce(5 * time.Second) {
		t.Fatal("the testbed did not quiesce")
	}
	snap := d.Net.Metrics().Snapshot()
	if snap["node.s1.received_pkts"] != 1 || snap["node.s0.received_pkts"] != 0 || snap["node.gw.dropped_pkts"] != 0 {
		t.Fatalf("s1 received %d, s0 %d, gw dropped %d; want 1, 0, 0",
			snap["node.s1.received_pkts"], snap["node.s0.received_pkts"], snap["node.gw.dropped_pkts"])
	}
}

// groupTopo is figure 5's shape on one daemon: a source behind a
// router whose segment carries two hosts, one of them joined to the
// group the router forwards onto the segment.
const groupTopo = `{
  "name": "group",
  "daemons": [{"name": "d1", "control": "127.0.0.1:18001"}],
  "nodes": [
    {"name": "src", "addr": "10.0.0.1", "daemon": "d1"},
    {"name": "r", "addr": "10.0.0.2", "daemon": "d1", "forwarding": true},
    {"name": "m0", "addr": "10.0.1.1", "daemon": "d1"},
    {"name": "m1", "addr": "10.0.1.2", "daemon": "d1"}
  ],
  "links": [{"a": "src", "b": "r"}],
  "segments": [{"name": "lan", "bandwidth_bps": 10000000, "members": ["r", "m0", "m1"]}],
  "mroutes": [{"node": "r", "dst": "239.1.1.1", "via": "lan"}],
  "joins": [{"node": "m0", "group": "239.1.1.1"}]
}`

// TestSegmentGroupOnOneDaemon: a testbed file declares a segment, a
// multicast route and a join, and a packet to the group crosses the
// router onto the segment and reaches the joined member only.
func TestSegmentGroupOnOneDaemon(t *testing.T) {
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
	src := d.Node("src")
	src.Send(substrate.NewUDP(src.Address(), substrate.MustAddr("239.1.1.1"), 9, discardPort, nil).Own())
	if !d.Net.Quiesce(5 * time.Second) {
		t.Fatal("the testbed did not quiesce")
	}
	snap := d.Net.Metrics().Snapshot()
	if snap["testbed.m0.rx_pkts"] != 1 || snap["testbed.m1.rx_pkts"] != 0 {
		t.Fatalf("m0 received %v, m1 %v; want 1, 0", snap["testbed.m0.rx_pkts"], snap["testbed.m1.rx_pkts"])
	}
}

// Package testbed assembles a DISTRIBUTED extensible network from
// planpd daemons on separate hosts: the configuration layer that turns
// "one daemon, one in-process cluster" into the paper's real shape —
// every host runs a protocol-management daemon over its own live
// nodes, and the network between them is real wire.
//
// A topology file (JSON) declares the daemons (one per host), the
// nodes each daemon owns, and the links between nodes. Links whose two
// endpoints live on the same daemon are ordinary in-process rtnet
// links; links that cross daemons become addressed UDP links
// (rtnet.NewRemoteLink) fronted by the versioned handshake, so a
// mis-deployed or version-skewed host is a structured rejection at
// link-establishment time, not a silent blackhole.
//
// Each daemon derives everything it needs from the one shared file and
// its own name: which nodes to create, which link halves to open,
// which routes to install (shortest-path next-hops over the declared
// link graph, plus explicit extras), and how to address its peers. Run
// all daemons in one process (`planpd up -topo f.json`) for a
// single-machine stand-in, or one per host (`-daemon <name>`) for the
// real thing — the file is identical in both.
package testbed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"planp.dev/planp/internal/substrate"
)

// Topology is the parsed testbed description shared by every daemon.
type Topology struct {
	// Name labels the testbed in logs and health responses.
	Name string `json:"name"`
	// Daemons are the participating planpd processes, one per host.
	Daemons []DaemonSpec `json:"daemons"`
	// Nodes are the substrate nodes, each owned by exactly one daemon.
	Nodes []NodeSpec `json:"nodes"`
	// Links are the duplex links between nodes; cross-daemon links need
	// UDP endpoints.
	Links []LinkSpec `json:"links"`
	// Routes are explicit extra routes layered over the derived
	// shortest-path ones — virtual addresses, policy detours.
	Routes []RouteSpec `json:"routes,omitempty"`
}

// DaemonSpec is one planpd process.
type DaemonSpec struct {
	// Name is the daemon's topology-wide identity (handshakes and
	// `planpd up -daemon` select by it).
	Name string `json:"name"`
	// Control is the daemon's HTTP control endpoint ("host:port") — the
	// address the other hosts' operators and the fleet controller use.
	Control string `json:"control"`
}

// NodeSpec is one substrate node.
type NodeSpec struct {
	// Name is the node's unique hostname.
	Name string `json:"name"`
	// Addr is the node's network address ("10.0.0.1").
	Addr string `json:"addr"`
	// Daemon names the owning daemon.
	Daemon string `json:"daemon"`
	// Forwarding marks a router (packets not addressed to the node are
	// forwarded instead of dropped).
	Forwarding bool `json:"forwarding,omitempty"`
}

// LinkSpec is one duplex link. The link's topology-wide name is
// "<a>-<b>", which is also its chaos-timeline name and, for
// cross-daemon links, its handshake-validated identity.
type LinkSpec struct {
	// A and B name the endpoints.
	A string `json:"a"`
	B string `json:"b"`
	// BandwidthBps is the link capacity (default 100 Mbps). Both ends
	// of a cross-daemon link validate agreement in the handshake.
	BandwidthBps int64 `json:"bandwidth_bps,omitempty"`
	// AUDP/BUDP are the link's UDP endpoints ("host:port"), one per
	// side. Required iff the endpoints live on different daemons.
	AUDP string `json:"a_udp,omitempty"`
	BUDP string `json:"b_udp,omitempty"`
}

// RouteSpec is one explicit route: on Node, traffic to Dst leaves via
// the link to neighbor Via.
type RouteSpec struct {
	Node string `json:"node"`
	Dst  string `json:"dst"`
	Via  string `json:"via"`
}

// DefaultBandwidth is a link's capacity when the topology does not
// say.
const DefaultBandwidth int64 = 100_000_000

// Name returns the link's topology-wide name ("a-b").
func (l *LinkSpec) Name() string { return l.A + "-" + l.B }

// Bandwidth returns the link's capacity, defaulted.
func (l *LinkSpec) Bandwidth() int64 {
	if l.BandwidthBps > 0 {
		return l.BandwidthBps
	}
	return DefaultBandwidth
}

// ParseTopology decodes and validates a topology. Strict JSON: unknown
// fields are errors.
func ParseTopology(b []byte) (*Topology, error) {
	var topo Topology
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&topo); err != nil {
		return nil, fmt.Errorf("testbed: topology: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("testbed: topology: trailing data after document")
	}
	if err := topo.validate(); err != nil {
		return nil, err
	}
	return &topo, nil
}

// LoadTopology reads and parses a topology file.
func LoadTopology(path string) (*Topology, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	return ParseTopology(b)
}

// validName reports whether s is non-empty and made of ASCII letters,
// digits and '_'. A name is spliced, unescaped, into the control API's
// mux patterns ("/node/<name>/" — "{srv" there panics the daemon),
// link names ("<a>-<b>"), rtnet port labels ("<local>:<peer>"), chaos
// references ("<link>:rev") and fleet target lists ("a=url,b"); the
// alphabet keeps every one of those separators out of it.
func validName(s string) bool {
	for _, c := range []byte(s) {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return s != ""
}

func (t *Topology) validate() error {
	if len(t.Daemons) == 0 {
		return fmt.Errorf("testbed: topology %q has no daemons", t.Name)
	}
	if len(t.Nodes) == 0 {
		return fmt.Errorf("testbed: topology %q has no nodes", t.Name)
	}
	daemons := map[string]bool{}
	for _, d := range t.Daemons {
		if d.Name == "" || d.Control == "" {
			return fmt.Errorf("testbed: daemon needs name and control endpoint (got %q, %q)", d.Name, d.Control)
		}
		if !validName(d.Name) {
			return fmt.Errorf("testbed: daemon name %q: want letters, digits and '_' only", d.Name)
		}
		if daemons[d.Name] {
			return fmt.Errorf("testbed: duplicate daemon %q", d.Name)
		}
		daemons[d.Name] = true
	}
	nodes := map[string]NodeSpec{}
	addrs := map[substrate.Addr]string{} // by value: "010.0.0.1" is "10.0.0.1"
	for _, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("testbed: node needs a name")
		}
		if !validName(n.Name) {
			return fmt.Errorf("testbed: node name %q: want letters, digits and '_' only", n.Name)
		}
		if _, dup := nodes[n.Name]; dup {
			return fmt.Errorf("testbed: duplicate node %q", n.Name)
		}
		if !daemons[n.Daemon] {
			return fmt.Errorf("testbed: node %q names unknown daemon %q", n.Name, n.Daemon)
		}
		addr, err := substrate.ParseAddr(n.Addr)
		if err != nil {
			return fmt.Errorf("testbed: node %q: %w", n.Name, err)
		}
		if prev, dup := addrs[addr]; dup {
			return fmt.Errorf("testbed: nodes %q and %q share address %s", prev, n.Name, addr)
		}
		addrs[addr] = n.Name
		nodes[n.Name] = n
	}
	links := map[string]bool{}
	for _, l := range t.Links {
		a, okA := nodes[l.A]
		b, okB := nodes[l.B]
		if !okA || !okB {
			return fmt.Errorf("testbed: link %q references unknown node", l.Name())
		}
		if l.A == l.B {
			return fmt.Errorf("testbed: link %q connects a node to itself", l.Name())
		}
		if links[l.Name()] || links[l.B+"-"+l.A] {
			return fmt.Errorf("testbed: duplicate link %q", l.Name())
		}
		links[l.Name()] = true
		cross := a.Daemon != b.Daemon
		if cross && (l.AUDP == "" || l.BUDP == "") {
			return fmt.Errorf("testbed: cross-daemon link %q needs a_udp and b_udp endpoints", l.Name())
		}
		if !cross && (l.AUDP != "" || l.BUDP != "") {
			return fmt.Errorf("testbed: link %q is daemon-local; drop its UDP endpoints", l.Name())
		}
	}
	for _, r := range t.Routes {
		if _, ok := nodes[r.Node]; !ok {
			return fmt.Errorf("testbed: route on unknown node %q", r.Node)
		}
		if _, ok := nodes[r.Via]; !ok {
			return fmt.Errorf("testbed: route via unknown node %q", r.Via)
		}
		if _, err := substrate.ParseAddr(r.Dst); err != nil {
			return fmt.Errorf("testbed: route on %q: %w", r.Node, err)
		}
		if !t.adjacent(r.Node, r.Via) {
			return fmt.Errorf("testbed: route on %q via %q: not adjacent", r.Node, r.Via)
		}
	}
	return nil
}

// Daemon returns the named daemon spec, or an error listing the valid
// names.
func (t *Topology) Daemon(name string) (DaemonSpec, error) {
	for _, d := range t.Daemons {
		if d.Name == name {
			return d, nil
		}
	}
	var names []string
	for _, d := range t.Daemons {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return DaemonSpec{}, fmt.Errorf("testbed: no daemon %q in topology %q (have %v)", name, t.Name, names)
}

// NodeSpecOf returns the named node's spec.
func (t *Topology) NodeSpecOf(name string) (NodeSpec, bool) {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return NodeSpec{}, false
}

// DaemonOf returns the control endpoint of the daemon owning node —
// how bare node names in deploy/adapt requests resolve to per-node
// control URLs across the whole testbed.
func (t *Topology) DaemonOf(node string) (DaemonSpec, bool) {
	n, ok := t.NodeSpecOf(node)
	if !ok {
		return DaemonSpec{}, false
	}
	for _, d := range t.Daemons {
		if d.Name == n.Daemon {
			return d, true
		}
	}
	return DaemonSpec{}, false
}

// NodeURL returns the cluster-wide control URL for a node's planpd
// API ("http://<control>/node/<name>").
func (t *Topology) NodeURL(node string) (string, bool) {
	d, ok := t.DaemonOf(node)
	if !ok {
		return "", false
	}
	return "http://" + d.Control + "/node/" + node, true
}

// adjacent reports whether a and b share a link.
func (t *Topology) adjacent(a, b string) bool {
	for _, l := range t.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return true
		}
	}
	return false
}

// neighbors returns each node's link-adjacent peers, sorted for
// deterministic route derivation.
func (t *Topology) neighbors() map[string][]string {
	adj := map[string][]string{}
	for _, l := range t.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	for _, peers := range adj {
		sort.Strings(peers)
	}
	return adj
}

// NextHops computes node from's shortest-path next hop toward every
// other reachable node (BFS over the link graph; ties break on sorted
// neighbor order, so every daemon derives identical tables from the
// shared file). The returned map is destination node → neighbor name.
func (t *Topology) NextHops(from string) map[string]string {
	adj := t.neighbors()
	next := map[string]string{}
	// BFS rooted at from; the first hop toward each discovered node is
	// inherited from its BFS parent.
	type item struct{ node, first string }
	visited := map[string]bool{from: true}
	var queue []item
	for _, nb := range adj[from] {
		visited[nb] = true
		queue = append(queue, item{nb, nb})
		next[nb] = nb
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur.node] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			next[nb] = cur.first
			queue = append(queue, item{nb, cur.first})
		}
	}
	return next
}

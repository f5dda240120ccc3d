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
// which routes to install (substrate.Build's one rule: a default route
// on a single-homed node, shortest-path host routes on a multi-homed
// one, explicit extras on top), and how to address its peers. Run
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
	// Routes are explicit extra routes layered over the derived ones
	// (substrate.Build's rule) — virtual addresses, policy detours, a
	// multi-homed node's default route.
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
// the link to neighbor Via. A Dst of 0.0.0.0 is the node's default
// route.
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
	for _, n := range t.Nodes {
		if !validName(n.Name) {
			return fmt.Errorf("testbed: node name %q: want letters, digits and '_' only", n.Name)
		}
		if !daemons[n.Daemon] {
			return fmt.Errorf("testbed: node %q names unknown daemon %q", n.Name, n.Daemon)
		}
		if _, err := substrate.ParseAddr(n.Addr); err != nil {
			return fmt.Errorf("testbed: node %q: %w", n.Name, err)
		}
	}
	for _, r := range t.Routes {
		if _, err := substrate.ParseAddr(r.Dst); err != nil {
			return fmt.Errorf("testbed: route on %q: %w", r.Node, err)
		}
	}
	// Names, addresses, links and routes by the builder's rules.
	if err := t.spec().Validate(); err != nil {
		return fmt.Errorf("testbed: topology %q: %w", t.Name, err)
	}
	for _, l := range t.Links {
		a, _ := t.NodeSpecOf(l.A)
		b, _ := t.NodeSpecOf(l.B)
		cross := a.Daemon != b.Daemon
		if cross && (l.AUDP == "" || l.BUDP == "") {
			return fmt.Errorf("testbed: cross-daemon link %q needs a_udp and b_udp endpoints", l.Name())
		}
		if !cross && (l.AUDP != "" || l.BUDP != "") {
			return fmt.Errorf("testbed: link %q is daemon-local; drop its UDP endpoints", l.Name())
		}
	}
	return nil
}

// spec returns the network t declares, addresses parsed, bandwidths
// defaulted: what every daemon builds its share of. The addresses must
// parse (ParseTopology checked them).
func (t *Topology) spec() *substrate.Topology {
	spec := &substrate.Topology{}
	for _, n := range t.Nodes {
		spec.Nodes = append(spec.Nodes, substrate.NodeSpec{Name: n.Name, Addr: substrate.MustAddr(n.Addr), Forwarding: n.Forwarding})
	}
	for _, l := range t.Links {
		spec.Links = append(spec.Links, substrate.LinkSpec{A: l.A, B: l.B, Bandwidth: l.Bandwidth()})
	}
	for _, r := range t.Routes {
		spec.Routes = append(spec.Routes, substrate.RouteSpec{Node: r.Node, Dst: substrate.MustAddr(r.Dst), Via: r.Via})
	}
	return spec
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

// linkSpec returns the link between a and b.
func (t *Topology) linkSpec(a, b string) LinkSpec {
	for _, l := range t.Links {
		if l.A == a && l.B == b {
			return l
		}
	}
	return LinkSpec{}
}

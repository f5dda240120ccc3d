// Package testbed assembles a DISTRIBUTED extensible network from
// planpd daemons on separate hosts: the configuration layer that turns
// "one daemon, one in-process cluster" into the paper's real shape —
// every host runs a protocol-management daemon over its own live
// nodes, and the network between them is real wire.
//
// A topology file (JSON) is a substrate.Topology plus the daemons (one
// per host): the nodes, each placed on its daemon, the links, the
// shared segments, the explicit and multicast routes and the group
// joins. Links whose two endpoints live on the same daemon are ordinary
// in-process rtnet links; links that cross daemons become addressed
// UDP links (rtnet.NewRemoteLink) fronted by the versioned handshake,
// so a mis-deployed or version-skewed host is a structured rejection at
// link-establishment time, not a silent blackhole. A segment is
// in-process, so its members share a daemon.
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

// Topology is the parsed testbed description shared by every daemon:
// the network in substrate's spec, and the daemons that host it. Each
// node names its daemon (NodeSpec.Site, JSON "daemon"); a link between
// two daemons names the UDP endpoint of each end (LinkSpec.AUDP and
// BUDP). A link's topology-wide name, "<a>-<b>", is also its
// chaos-timeline name and, across daemons, its handshake-validated
// identity.
type Topology struct {
	// Name labels the testbed in logs and health responses.
	Name string `json:"name"`
	// Daemons are the participating planpd processes, one per host.
	Daemons []DaemonSpec `json:"daemons"`
	substrate.Topology
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

// DefaultBandwidth is a link's capacity when the topology does not say.
const DefaultBandwidth int64 = 100_000_000

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
	for i := range topo.Links {
		if topo.Links[i].Bandwidth == 0 {
			topo.Links[i].Bandwidth = DefaultBandwidth
		}
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
		if !daemons[n.Site] {
			return fmt.Errorf("testbed: node %q names unknown daemon %q", n.Name, n.Site)
		}
	}
	for _, s := range t.Segments {
		if !validName(s.Name) {
			return fmt.Errorf("testbed: segment name %q: want letters, digits and '_' only", s.Name)
		}
	}
	// Names, addresses, links, segments and routes by the builder's rules.
	if err := t.Validate(); err != nil {
		return fmt.Errorf("testbed: topology %q: %w", t.Name, err)
	}
	for _, l := range t.Links {
		cross := t.siteOf(l.A) != t.siteOf(l.B)
		if cross && (l.AUDP == "" || l.BUDP == "") {
			return fmt.Errorf("testbed: cross-daemon link %q needs a_udp and b_udp endpoints", l.Name())
		}
		if !cross && (l.AUDP != "" || l.BUDP != "") {
			return fmt.Errorf("testbed: link %q is daemon-local; drop its UDP endpoints", l.Name())
		}
	}
	// rtnet segments are in-process: one daemon hosts all of one.
	for _, s := range t.Segments {
		for _, m := range s.Members {
			if a, b := t.siteOf(s.Members[0]), t.siteOf(m); a != b {
				return fmt.Errorf("testbed: segment %q spans daemons %q and %q", s.Name, a, b)
			}
		}
	}
	return nil
}

// siteOf returns the daemon that hosts the named node.
func (t *Topology) siteOf(node string) string {
	n, _ := t.NodeSpecOf(node)
	return n.Site
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
func (t *Topology) NodeSpecOf(name string) (substrate.NodeSpec, bool) {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return substrate.NodeSpec{}, false
}

// DaemonOf returns the control endpoint of the daemon owning node —
// how bare node names in deploy/adapt requests resolve to per-node
// control URLs across the whole testbed.
func (t *Topology) DaemonOf(node string) (DaemonSpec, bool) {
	n, ok := t.NodeSpecOf(node)
	if !ok {
		return DaemonSpec{}, false
	}
	d, err := t.Daemon(n.Site)
	return d, err == nil
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

// Topologies: a network declared once, as data, and the one function
// that builds it on any backend. A Topology names the nodes, the duplex
// links, the shared segments, the explicit routes and the multicast
// state; Build creates them through a backend's constructors — nodes,
// then links, then each segment with its members, all in spec order,
// because the simulator's output depends on that order — and installs
// every unicast route by one rule:
//
//   - a stub, a node with one interface, gets only a default route out
//     of it;
//   - a multi-homed node gets a host route to every node it can reach,
//     out of the interface its shortest path leaves by: a segment is
//     one hop, and ties break on the next hops' sorted names, so every
//     network that builds a topology derives the same tables;
//   - the explicit routes go on top; a route to 0.0.0.0 is the node's
//     default route.
//
// A topology spans sites when its nodes name them: each site builds
// its own nodes and its ends of the links (Backend.Site). The JSON form
// is the testbed's file format; addresses are dotted quads.
package substrate

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
)

// Topology declares a network. Node and segment names share one
// namespace: a route's Via names either.
type Topology struct {
	Nodes    []NodeSpec    `json:"nodes"`
	Links    []LinkSpec    `json:"links"`
	Segments []SegmentSpec `json:"segments,omitempty"`
	// Routes are explicit routes, installed over the derived ones.
	Routes []RouteSpec `json:"routes,omitempty"`
	// Mroutes are multicast routes: on Node, traffic to the group Dst
	// leaves via Via.
	Mroutes []RouteSpec `json:"mroutes,omitempty"`
	// Joins subscribe nodes to multicast groups for local delivery.
	Joins []JoinSpec `json:"joins,omitempty"`
}

// NodeSpec is one host or router.
type NodeSpec struct {
	Name string `json:"name"`
	Addr Addr   `json:"addr"`
	// Site names the site that hosts the node, a testbed daemon; empty
	// on a network one site builds whole.
	Site string `json:"daemon,omitempty"`
	// Forwarding marks a router: packets addressed elsewhere are
	// forwarded, and every frame on a segment reaches it.
	Forwarding bool `json:"forwarding,omitempty"`
}

// UnmarshalJSON decodes a node strictly, refusing unknown fields, and
// names the node when its address is malformed.
func (n *NodeSpec) UnmarshalJSON(b []byte) error {
	type plain NodeSpec
	var v struct {
		plain
		Addr string `json:"addr"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	addr, err := ParseAddr(v.Addr)
	if err != nil {
		return fmt.Errorf("node %q: %w", v.Name, err)
	}
	*n = NodeSpec(v.plain)
	n.Addr = addr
	return nil
}

// LinkSpec is one duplex point-to-point link between nodes A and B.
type LinkSpec struct {
	A         string `json:"a"`
	B         string `json:"b"`
	Bandwidth int64  `json:"bandwidth_bps"` // bits/s per direction
	// AUDP and BUDP are the UDP endpoints ("host:port") A's and B's ends
	// listen on, for a link between two sites.
	AUDP string `json:"a_udp,omitempty"`
	BUDP string `json:"b_udp,omitempty"`
}

// Name returns the link's topology-wide name, "<a>-<b>".
func (l LinkSpec) Name() string { return l.A + "-" + l.B }

// SegmentSpec is one shared broadcast medium.
type SegmentSpec struct {
	Name      string   `json:"name"`
	Bandwidth int64    `json:"bandwidth_bps"`     // bits/s, shared by every sender
	Members   []string `json:"members"`           // the attached nodes, in attach order
	Promisc   []string `json:"promisc,omitempty"` // the members attached promiscuously
}

// RouteSpec is one route: on Node, traffic to Dst leaves via Via, an
// adjacent node or a segment Node is on.
type RouteSpec struct {
	Node string `json:"node"`
	Dst  Addr   `json:"dst"`
	Via  string `json:"via"`
}

// JoinSpec subscribes Node to Group.
type JoinSpec struct {
	Node  string `json:"node"`
	Group Addr   `json:"group"`
}

// Host is a node Build can configure: every backend's node, through
// its embedded Stack.
type Host interface {
	AddRoute(dst Addr, ifc Iface)
	SetDefaultRoute(ifc Iface)
	AddMulticastRoute(group Addr, ifc Iface)
	JoinGroup(group Addr)
}

// Backend is what Build needs of a network: the site it builds and a
// constructor for each kind of element.
type Backend[N Host] struct {
	// Site selects the nodes the network hosts: those whose Site it is.
	// Empty hosts every node.
	Site string
	// Node creates the node n declares.
	Node func(n NodeSpec) N
	// Link creates link l and returns a's end and b's. Build calls it
	// when at least one end is hosted; an end that is not is the zero N
	// and gets a nil Iface.
	Link func(l LinkSpec, a, b N) (Iface, Iface, error)
	// Segment creates segment s and returns what attaches a hosted
	// member to it. Build calls it when at least one member is hosted.
	// nil: the backend has no segments.
	Segment func(s SegmentSpec) (attach func(n N, promisc bool) Iface)
}

// Built is the network Build made.
type Built[N Host] struct {
	// Nodes are the nodes in spec order, the zero N where another
	// site hosts the node.
	Nodes  []N
	hosted []bool // per node in spec order: this site built it
	g      *graph
}

// Hosted reports whether the named node was built here, not on another
// site.
func (b *Built[N]) Hosted(name string) bool {
	i, ok := b.g.node(name)
	return ok && b.hosted[i]
}

// Node returns the named node, or the zero N.
func (b *Built[N]) Node(name string) N {
	var zero N
	if i, ok := b.g.node(name); ok {
		return b.Nodes[i]
	}
	return zero
}

// Iface returns node's interface toward via, an adjacent node or a
// segment the node is on; nil when there is none.
func (b *Built[N]) Iface(node, via string) Iface {
	if i, ok := b.g.node(node); ok {
		if e := b.g.edge(i, via); e != nil {
			return e.ifc
		}
	}
	return nil
}

// Build validates t and builds it through be. On an error the network
// may hold part of t; the caller discards it.
func Build[N Host](t *Topology, be Backend[N]) (*Built[N], error) {
	g, err := t.graph()
	if err != nil {
		return nil, err
	}
	if len(t.Segments) > 0 && be.Segment == nil {
		return nil, fmt.Errorf("substrate: segment %q: the backend has no segments", t.Segments[0].Name)
	}
	hosted := make([]bool, len(t.Nodes))
	b := &Built[N]{Nodes: make([]N, len(t.Nodes)), hosted: hosted, g: g}
	for i, n := range t.Nodes {
		if hosted[i] = be.Site == "" || be.Site == n.Site; hosted[i] {
			b.Nodes[i] = be.Node(n)
		}
	}
	for _, l := range t.Links {
		i, _ := g.node(l.A)
		j, _ := g.node(l.B)
		if !hosted[i] && !hosted[j] {
			continue
		}
		ab, ba, err := be.Link(l, b.Nodes[i], b.Nodes[j])
		if err != nil {
			return nil, err
		}
		g.edge(i, l.B).ifc, g.edge(j, l.A).ifc = ab, ba
	}
	for s, seg := range t.Segments {
		if !slices.ContainsFunc(g.members[s], func(i int) bool { return hosted[i] }) {
			continue
		}
		attach := be.Segment(seg)
		for _, i := range g.members[s] {
			if hosted[i] {
				g.edge(i, seg.Name).ifc = attach(b.Nodes[i], slices.Contains(seg.Promisc, t.Nodes[i].Name))
			}
		}
	}
	for i, n := range b.Nodes {
		switch out := g.edges[i]; {
		case !hosted[i] || len(out) == 0:
		case len(out) == 1:
			n.SetDefaultRoute(out[0].ifc)
		default:
			for j, k := range g.hops(i) {
				if k >= 0 {
					n.AddRoute(t.Nodes[j].Addr, out[k].ifc)
				}
			}
		}
	}
	for _, r := range t.Routes {
		if i, _ := g.node(r.Node); hosted[i] {
			if ifc := g.edge(i, r.Via).ifc; r.Dst == 0 {
				b.Nodes[i].SetDefaultRoute(ifc)
			} else {
				b.Nodes[i].AddRoute(r.Dst, ifc)
			}
		}
	}
	for _, r := range t.Mroutes {
		if i, _ := g.node(r.Node); hosted[i] {
			b.Nodes[i].AddMulticastRoute(r.Dst, g.edge(i, r.Via).ifc)
		}
	}
	for _, j := range t.Joins {
		if i, _ := g.node(j.Node); hosted[i] {
			b.Nodes[i].JoinGroup(j.Group)
		}
	}
	return b, nil
}

// Validate reports the first way t cannot be built: a name that is
// empty, repeated or unknown, two nodes at one address, a self or
// repeated link, a medium without bandwidth, a route via an element its
// node is not on, or a multicast entry whose group is not one.
func (t *Topology) Validate() error {
	_, err := t.graph()
	return err
}

// graph is a validated Topology indexed for building and routing.
type graph struct {
	t       *Topology
	edges   [][]edge // per node, sorted by via
	members [][]int  // per segment, its members' positions
}

// node returns the position of the named node in Nodes.
func (g *graph) node(name string) (int, bool) {
	i := slices.IndexFunc(g.t.Nodes, func(n NodeSpec) bool { return n.Name == name })
	return i, i >= 0
}

// edge is one of a node's interfaces: over a link, or onto a segment.
type edge struct {
	via  string // the peer's name, or the segment's
	ends []int  // the nodes one hop over it: the peer, or the members
	ifc  Iface  // set by Build on a hosted node
}

// edge returns node i's edge via, or nil.
func (g *graph) edge(i int, via string) *edge {
	for k := range g.edges[i] {
		if g.edges[i][k].via == via {
			return &g.edges[i][k]
		}
	}
	return nil
}

// hops runs a breadth-first search from node from and returns, per node,
// the index in from's edges of the first hop toward it: -1 for from
// itself and for nodes it cannot reach.
func (g *graph) hops(from int) []int {
	first := make([]int, len(g.edges))
	for j := range first {
		first[j] = -1
	}
	queue := make([]int, 0, len(g.edges))
	visit := func(j, k int) {
		if j != from && first[j] < 0 {
			first[j] = k
			queue = append(queue, j)
		}
	}
	for k, e := range g.edges[from] {
		for _, j := range e.ends {
			visit(j, k)
		}
	}
	for q := 0; q < len(queue); q++ {
		cur := queue[q]
		for _, e := range g.edges[cur] {
			for _, j := range e.ends {
				visit(j, first[cur])
			}
		}
	}
	return first
}

// graph validates t and indexes it.
func (t *Topology) graph() (*graph, error) {
	g := &graph{t: t, edges: make([][]edge, len(t.Nodes))}
	for i, n := range t.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("substrate: node needs a name")
		}
		if k, _ := g.node(n.Name); k < i {
			return nil, fmt.Errorf("substrate: duplicate node %q", n.Name)
		}
		if k := slices.IndexFunc(t.Nodes[:i], func(o NodeSpec) bool { return o.Addr == n.Addr }); k >= 0 {
			return nil, fmt.Errorf("substrate: nodes %q and %q share address %s", t.Nodes[k].Name, n.Name, n.Addr)
		}
	}
	for _, l := range t.Links {
		name := l.Name()
		i, okA := g.node(l.A)
		j, okB := g.node(l.B)
		switch {
		case !okA || !okB:
			return nil, fmt.Errorf("substrate: link %q references unknown node", name)
		case i == j:
			return nil, fmt.Errorf("substrate: link %q connects a node to itself", name)
		case g.edge(i, l.B) != nil:
			return nil, fmt.Errorf("substrate: duplicate link %q", name)
		case l.Bandwidth <= 0:
			return nil, fmt.Errorf("substrate: link %q needs a bandwidth", name)
		}
		g.edges[i] = append(g.edges[i], edge{via: l.B, ends: []int{j}})
		g.edges[j] = append(g.edges[j], edge{via: l.A, ends: []int{i}})
	}
	g.members = make([][]int, len(t.Segments))
	for s, seg := range t.Segments {
		if _, clash := g.node(seg.Name); clash || seg.Name == "" {
			return nil, fmt.Errorf("substrate: segment name %q is empty or names a node", seg.Name)
		}
		if slices.ContainsFunc(t.Segments[:s], func(o SegmentSpec) bool { return o.Name == seg.Name }) {
			return nil, fmt.Errorf("substrate: duplicate segment %q", seg.Name)
		}
		if seg.Bandwidth <= 0 {
			return nil, fmt.Errorf("substrate: segment %q needs a bandwidth", seg.Name)
		}
		for _, m := range seg.Members {
			i, ok := g.node(m)
			if !ok {
				return nil, fmt.Errorf("substrate: segment %q: unknown member %q", seg.Name, m)
			}
			if slices.Contains(g.members[s], i) {
				return nil, fmt.Errorf("substrate: segment %q: member %q attached twice", seg.Name, m)
			}
			g.members[s] = append(g.members[s], i)
		}
		for _, i := range g.members[s] {
			g.edges[i] = append(g.edges[i], edge{via: seg.Name, ends: g.members[s]})
		}
		for _, p := range seg.Promisc {
			if !slices.Contains(seg.Members, p) {
				return nil, fmt.Errorf("substrate: segment %q: promiscuous %q is not a member", seg.Name, p)
			}
		}
	}
	for _, out := range g.edges {
		slices.SortFunc(out, func(a, b edge) int { return cmp.Compare(a.via, b.via) })
	}
	for _, r := range t.Routes {
		if err := g.checkVia(t, "route", r); err != nil {
			return nil, err
		}
	}
	for _, r := range t.Mroutes {
		if err := g.checkVia(t, "multicast route", r); err != nil {
			return nil, err
		}
		if !r.Dst.IsMulticast() {
			return nil, fmt.Errorf("substrate: multicast route on %q: %s is not a group", r.Node, r.Dst)
		}
	}
	for _, j := range t.Joins {
		if _, ok := g.node(j.Node); !ok {
			return nil, fmt.Errorf("substrate: join on unknown node %q", j.Node)
		}
		if !j.Group.IsMulticast() {
			return nil, fmt.Errorf("substrate: join on %q: %s is not a group", j.Node, j.Group)
		}
	}
	return g, nil
}

// checkVia checks that r's node exists and is on the element r leaves
// by.
func (g *graph) checkVia(t *Topology, kind string, r RouteSpec) error {
	i, ok := g.node(r.Node)
	if !ok {
		return fmt.Errorf("substrate: %s on unknown node %q", kind, r.Node)
	}
	if g.edge(i, r.Via) != nil {
		return nil
	}
	if _, node := g.node(r.Via); !node && !slices.ContainsFunc(t.Segments, func(s SegmentSpec) bool { return s.Name == r.Via }) {
		return fmt.Errorf("substrate: %s via unknown node or segment %q", kind, r.Via)
	}
	return fmt.Errorf("substrate: %s on %q via %q: not adjacent", kind, r.Node, r.Via)
}

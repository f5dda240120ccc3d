package substrate

import (
	"maps"
	"strings"
	"testing"
)

// port is an Iface that only has a name.
type port string

func (port) Send(*Packet)     {}
func (port) Load() int64      { return 0 }
func (port) Bandwidth() int64 { return 0 }

// host records what Build configures, by interface name.
type host struct {
	name    string
	routes  map[Addr]string
	dflt    string
	mroutes map[Addr][]string
	joined  []Addr
}

func (h *host) AddRoute(dst Addr, ifc Iface) { h.routes[dst] = string(ifc.(port)) }
func (h *host) SetDefaultRoute(ifc Iface)    { h.dflt = string(ifc.(port)) }
func (h *host) AddMulticastRoute(group Addr, ifc Iface) {
	h.mroutes[group] = append(h.mroutes[group], string(ifc.(port)))
}
func (h *host) JoinGroup(group Addr) { h.joined = append(h.joined, group) }

// build builds t from hosts and ports named "a->b" on links and "n@seg"
// (with a "*" when promiscuous) on segments, hosting the nodes placed on
// site, and returns the hosts by name, with a nil entry for each segment
// it created.
func build(t *testing.T, spec *Topology, site string) map[string]*host {
	t.Helper()
	hosts := map[string]*host{}
	_, err := Build(spec, Backend[*host]{
		Site: site,
		Node: func(n NodeSpec) *host {
			h := &host{name: n.Name, routes: map[Addr]string{}, mroutes: map[Addr][]string{}}
			hosts[n.Name] = h
			return h
		},
		Link: func(l LinkSpec, a, b *host) (Iface, Iface, error) {
			var ab, ba Iface
			if a != nil {
				ab = port(l.A + "->" + l.B)
			}
			if b != nil {
				ba = port(l.B + "->" + l.A)
			}
			return ab, ba, nil
		},
		Segment: func(s SegmentSpec) func(*host, bool) Iface {
			hosts[s.Name] = nil
			return func(n *host, promisc bool) Iface {
				if promisc {
					return port(n.name + "@" + s.Name + "*")
				}
				return port(n.name + "@" + s.Name)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return hosts
}

var (
	addrA  = MustAddr("10.0.0.1")
	addrR  = MustAddr("10.0.0.2")
	addrB  = MustAddr("10.0.1.1")
	addrC  = MustAddr("10.0.1.2")
	addrV  = MustAddr("10.0.9.9")
	groupG = MustAddr("239.1.1.1")
)

// routed is a stub a linked to router r, which shares segment lan with
// b and c (c promiscuous).
func routed() *Topology {
	return &Topology{
		Nodes: []NodeSpec{
			{Name: "a", Addr: addrA},
			{Name: "r", Addr: addrR, Forwarding: true},
			{Name: "b", Addr: addrB},
			{Name: "c", Addr: addrC},
		},
		Links:    []LinkSpec{{A: "a", B: "r", Bandwidth: 1e6}},
		Segments: []SegmentSpec{{Name: "lan", Bandwidth: 1e6, Members: []string{"r", "b", "c"}, Promisc: []string{"c"}}},
	}
}

// TestBuildRouteRule: a stub gets only a default route, a multi-homed
// node host routes over the shortest paths, a segment counted as one
// hop, and the explicit routes go on top of them, 0.0.0.0 as the
// default route.
func TestBuildRouteRule(t *testing.T) {
	spec := routed()
	hosts := build(t, spec, "")
	for _, stub := range []struct{ name, dflt string }{{"a", "a->r"}, {"b", "b@lan"}, {"c", "c@lan*"}} {
		if h := hosts[stub.name]; len(h.routes) != 0 || h.dflt != stub.dflt {
			t.Errorf("stub %s: host routes %v, default %q; want none and %q", stub.name, h.routes, h.dflt, stub.dflt)
		}
	}
	want := map[Addr]string{addrA: "r->a", addrB: "r@lan", addrC: "r@lan"}
	if r := hosts["r"]; !maps.Equal(r.routes, want) || r.dflt != "" {
		t.Errorf("router: host routes %v, default %q; want %v and none", r.routes, r.dflt, want)
	}

	spec.Routes = []RouteSpec{
		{Node: "r", Dst: addrV, Via: "lan"},
		{Node: "r", Dst: addrB, Via: "a"}, // over a derived one
		{Node: "r", Dst: 0, Via: "a"},
		{Node: "b", Dst: addrV, Via: "lan"},
	}
	spec.Mroutes = []RouteSpec{{Node: "r", Dst: groupG, Via: "lan"}, {Node: "r", Dst: groupG, Via: "a"}}
	spec.Joins = []JoinSpec{{Node: "b", Group: groupG}}
	hosts = build(t, spec, "")
	want = map[Addr]string{addrA: "r->a", addrB: "r->a", addrC: "r@lan", addrV: "r@lan"}
	if r := hosts["r"]; !maps.Equal(r.routes, want) || r.dflt != "r->a" {
		t.Errorf("router: host routes %v, default %q; want %v and r->a", r.routes, r.dflt, want)
	}
	if b := hosts["b"]; b.routes[addrV] != "b@lan" || b.dflt != "b@lan" || len(b.joined) != 1 || b.joined[0] != groupG {
		t.Errorf("b: routes %v, default %q, joined %v", b.routes, b.dflt, b.joined)
	}
	if got := hosts["r"].mroutes[groupG]; len(got) != 2 || got[0] != "r@lan" || got[1] != "r->a" {
		t.Errorf("router multicast routes %v, want [r@lan r->a]", got)
	}
}

// TestNextHops: the host routes Build installs send the far ends of a
// star through its middle and break ties between equal paths on the next
// hops' sorted names.
func TestNextHops(t *testing.T) {
	star := &Topology{
		Nodes: []NodeSpec{{Name: "gw", Addr: 1}, {Name: "s0", Addr: 2}, {Name: "s1", Addr: 3}},
		Links: []LinkSpec{{A: "gw", B: "s0", Bandwidth: 1}, {A: "gw", B: "s1", Bandwidth: 1}},
	}
	hosts := build(t, star, "")
	if gw := hosts["gw"]; !maps.Equal(gw.routes, map[Addr]string{2: "gw->s0", 3: "gw->s1"}) {
		t.Errorf("star hub: host routes %v", gw.routes)
	}
	// Two equal paths from a to d, and from d to a: the next hop named
	// first wins, whatever the spec order.
	diamond := &Topology{
		Nodes: []NodeSpec{{Name: "a", Addr: 1}, {Name: "c", Addr: 2}, {Name: "b", Addr: 3}, {Name: "d", Addr: 4}},
		Links: []LinkSpec{
			{A: "a", B: "c", Bandwidth: 1}, {A: "a", B: "b", Bandwidth: 1},
			{A: "c", B: "d", Bandwidth: 1}, {A: "b", B: "d", Bandwidth: 1},
		},
	}
	hosts = build(t, diamond, "")
	if a := hosts["a"]; !maps.Equal(a.routes, map[Addr]string{2: "a->c", 3: "a->b", 4: "a->b"}) {
		t.Errorf("diamond a: host routes %v", a.routes)
	}
	if d := hosts["d"]; !maps.Equal(d.routes, map[Addr]string{1: "d->b", 2: "d->c", 3: "d->b"}) {
		t.Errorf("diamond d: host routes %v", d.routes)
	}
}

// TestBuildHostsItsShare: a network hosting one site creates only the
// nodes placed there, their ends of the links and the segments they are
// on, and routes them by the whole topology's paths.
func TestBuildHostsItsShare(t *testing.T) {
	spec := &Topology{
		Nodes: []NodeSpec{
			{Name: "a", Addr: 1, Site: "far"}, {Name: "r", Addr: 2, Site: "here"}, {Name: "b", Addr: 3, Site: "here"},
			{Name: "x", Addr: 4, Site: "far"}, {Name: "y", Addr: 5, Site: "far"},
		},
		Links:    []LinkSpec{{A: "a", B: "r", Bandwidth: 1}, {A: "r", B: "b", Bandwidth: 1}, {A: "b", B: "x", Bandwidth: 1}},
		Segments: []SegmentSpec{{Name: "lan", Bandwidth: 1, Members: []string{"x", "y"}}},
	}
	hosts := build(t, spec, "here")
	if len(hosts) != 2 {
		t.Fatalf("built %d nodes and segments, want nodes r and b", len(hosts))
	}
	want := map[Addr]string{1: "r->a", 3: "r->b", 4: "r->b", 5: "r->b"}
	if r := hosts["r"]; !maps.Equal(r.routes, want) {
		t.Errorf("r routes %v, want %v", r.routes, want)
	}
	want = map[Addr]string{1: "b->r", 2: "b->r", 4: "b->x", 5: "b->x"}
	if b := hosts["b"]; !maps.Equal(b.routes, want) {
		t.Errorf("b routes %v, want %v", b.routes, want)
	}
}

// TestTopologyValidation: every topology Build cannot build is an error
// naming what is wrong, before anything is built.
func TestTopologyValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Topology)
		want string
	}{
		{"unnamed-node", func(t *Topology) { t.Nodes[1].Name = "" }, "node needs a name"},
		{"dup-node", func(t *Topology) { t.Nodes[2].Name = "a" }, `duplicate node "a"`},
		{"dup-addr", func(t *Topology) { t.Nodes[2].Addr = addrA }, "share address"},
		{"unknown-link-node", func(t *Topology) { t.Links[0].B = "z" }, "unknown node"},
		{"self-link", func(t *Topology) { t.Links[0].B = "a" }, "itself"},
		{"dup-link-reversed", func(t *Topology) { t.Links = append(t.Links, LinkSpec{A: "r", B: "a", Bandwidth: 1}) }, "duplicate link"},
		{"link-bandwidth", func(t *Topology) { t.Links[0].Bandwidth = 0 }, "needs a bandwidth"},
		{"segment-bandwidth", func(t *Topology) { t.Segments[0].Bandwidth = 0 }, "needs a bandwidth"},
		{"segment-names-node", func(t *Topology) { t.Segments[0].Name = "b" }, "names a node"},
		{"segment-unknown-member", func(t *Topology) { t.Segments[0].Members[1] = "z" }, `unknown member "z"`},
		{"segment-member-twice", func(t *Topology) { t.Segments[0].Members[2] = "b" }, "attached twice"},
		{"promisc-not-member", func(t *Topology) { t.Segments[0].Promisc = []string{"a"} }, "not a member"},
		{"route-on-unknown", func(t *Topology) { t.Routes = []RouteSpec{{Node: "z", Dst: addrV, Via: "r"}} }, "route on unknown node"},
		{"route-via-unknown", func(t *Topology) { t.Routes = []RouteSpec{{Node: "a", Dst: addrV, Via: "z"}} }, "route via unknown node"},
		{"route-via-non-adjacent", func(t *Topology) { t.Routes = []RouteSpec{{Node: "a", Dst: addrV, Via: "b"}} }, "not adjacent"},
		{"route-via-other-segment", func(t *Topology) { t.Routes = []RouteSpec{{Node: "a", Dst: 0, Via: "lan"}} }, "not adjacent"},
		{"mroute-not-group", func(t *Topology) { t.Mroutes = []RouteSpec{{Node: "r", Dst: addrV, Via: "lan"}} }, "not a group"},
		{"join-unknown", func(t *Topology) { t.Joins = []JoinSpec{{Node: "z", Group: groupG}} }, "join on unknown node"},
		{"join-not-group", func(t *Topology) { t.Joins = []JoinSpec{{Node: "b", Group: addrV}} }, "not a group"},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := routed()
			c.edit(spec)
			if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want an error mentioning %q", err, c.want)
			}
			built := false
			_, err := Build(spec, Backend[*host]{Node: func(NodeSpec) *host { built = true; return nil }})
			if err == nil || built {
				t.Fatalf("Build: error %v after building a node: %v; want an error first", err, built)
			}
		})
	}
	if err := routed().Validate(); err != nil {
		t.Fatalf("the valid topology: %v", err)
	}
}

// Topologies: rtnet's constructors for substrate.Build, and Line, the
// spec of a line of hosts.
package rtnet

import (
	"fmt"

	"planp.dev/planp/internal/substrate"
)

// Backend returns rtnet's constructors on nw: channel links, or
// loopback-UDP links when udp is set, and in-process segments.
func Backend(nw *Net, udp bool) substrate.Backend[*Node] {
	return substrate.Backend[*Node]{
		Node: func(n substrate.NodeSpec) *Node {
			node := NewNode(nw, n.Name, n.Addr)
			node.Forwarding = n.Forwarding
			return node
		},
		Link: func(l substrate.LinkSpec, a, b *Node) (substrate.Iface, substrate.Iface, error) {
			if !udp {
				ab, ba := NewLink(nw, a, b, l.Bandwidth)
				return ab, ba, nil
			}
			ab, ba, err := NewUDPLink(nw, a, b, l.Bandwidth)
			if err != nil {
				return nil, nil, fmt.Errorf("rtnet: link %s-%s: %w", l.A, l.B, err)
			}
			return ab, ba, nil
		},
		Segment: func(s substrate.SegmentSpec) func(*Node, bool) substrate.Iface {
			seg := NewSegment(nw, s.Name, s.Bandwidth)
			return func(n *Node, promisc bool) substrate.Iface { return seg.Attach(n, promisc) }
		},
	}
}

// Build builds t on nw through Backend(nw, udp).
func Build(nw *Net, t *substrate.Topology, udp bool) (*substrate.Built[*Node], error) {
	return substrate.Build(t, Backend(nw, udp))
}

// LineHost describes one host of a line topology.
type LineHost = substrate.NodeSpec

// Line builds hosts on nw as a line: consecutive hosts joined by duplex
// links of the given bandwidth (loopback-UDP sockets when udp is set),
// routed by Build's rule. It returns the nodes in spec order.
func Line(nw *Net, hosts []LineHost, bandwidthBps int64, udp bool) ([]*Node, error) {
	t := &substrate.Topology{Nodes: hosts}
	for i := 1; i < len(hosts); i++ {
		t.Links = append(t.Links, substrate.LinkSpec{A: hosts[i-1].Name, B: hosts[i].Name, Bandwidth: bandwidthBps})
	}
	b, err := Build(nw, t, udp)
	if err != nil {
		return nil, err
	}
	return b.Nodes, nil
}

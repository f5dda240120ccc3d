// Nodes: real concurrent hosts and routers. A node's IP layer — tables,
// processor hook, crash state, send/forward/deliver/drop — is
// substrate.Stack, the same code netsim nodes run; what is left here is
// the real-time part: the inbox, the goroutine draining it, and the
// clock skew.
package rtnet

import (
	"fmt"
	"sync/atomic"
	"time"

	"planp.dev/planp/internal/substrate"
)

// inbound is one packet awaiting processing on a node's inbox. q, when
// non-nil, is the sending interface's queue-depth counter, decremented
// when the packet leaves the inbox (drop-tail accounting).
type inbound struct {
	pkt *substrate.Packet
	in  substrate.Iface
	q   *atomic.Int32
}

// inboxCap bounds a node's inbox. Per-interface drop-tail caps are
// tighter (see queueCap), so the inbox itself overflows only under
// pathological fan-in.
const inboxCap = 4096

// Node is a host or router.
type Node struct {
	substrate.Stack

	net   *Net
	inbox chan inbound
}

// NewNode registers a node with the network. Names and addresses must
// be unique.
func NewNode(nw *Net, name string, addr substrate.Addr) *Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.byAddr[addr] != nil {
		panic(fmt.Sprintf("rtnet: duplicate node address %s", addr))
	}
	if nw.byName[name] != nil {
		panic(fmt.Sprintf("rtnet: duplicate node name %q", name))
	}
	n := &Node{net: nw, inbox: make(chan inbound, inboxCap)}
	n.Init(nw, name, addr)
	nw.byAddr[addr] = n
	nw.byName[name] = n
	nw.nodes = append(nw.nodes, n)
	return n
}

// run is the node's processing goroutine: drain the inbox until the
// network shuts down. All per-node state (processor, interpreter
// instance, bindings) is only touched from here, which is what makes an
// installed ASP single-threaded exactly as on the simulator. The inbox
// is tried first and selected on only when empty, so a burst costs a
// channel receive per packet, not a two-channel select; quit is polled
// each turn (a load while it is open) so that a sender who keeps the
// inbox full cannot keep Close waiting.
func (n *Node) run() {
	defer n.net.wg.Done()
	for {
		select {
		case <-n.net.quit:
			return
		default:
		}
		var m inbound
		select {
		case m = <-n.inbox:
		default:
			select {
			case <-n.net.quit:
				return
			case m = <-n.inbox:
			}
		}
		n.Receive(m.pkt, m.in)
		if m.q != nil {
			m.q.Add(-1)
		}
		n.net.inflight.Add(-1)
	}
}

// enqueue places pkt on the inbox without blocking; it reports false
// (drop-tail) when the inbox is full.
func (n *Node) enqueue(pkt *substrate.Packet, in substrate.Iface, q *atomic.Int32) bool {
	n.net.inflight.Add(1)
	select {
	case n.inbox <- inbound{pkt: pkt, in: in, q: q}:
		return true
	default:
		n.net.inflight.Add(-1)
		return false
	}
}

// SetClockSkew shifts the node's clock (substrate.ClockSkewer). On
// rtnet a node's clock IS its network's clock — one daemon, one host,
// one drifting oscillator — so the skew applies network-wide.
func (n *Node) SetClockSkew(d time.Duration) { n.net.SetClockSkew(d) }

// ClockSkew returns the injected clock skew (substrate.ClockSkewer).
func (n *Node) ClockSkew() time.Duration { return n.net.ClockSkew() }

// Interface satisfaction.
var (
	_ substrate.Node        = (*Node)(nil)
	_ substrate.Crasher     = (*Node)(nil)
	_ substrate.ClockSkewer = (*Node)(nil)
)

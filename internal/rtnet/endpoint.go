// Endpoints: what every rtnet link kind — channel, loopback-UDP,
// cross-host — adds to substrate.Port. The port owns the fault verdict
// and the enqueue and drop events; the endpoint is its medium: a rate
// meter, the link's loss counters, a timer per delayed copy, and a
// transport that moves one copy to the peer.
package rtnet

import (
	"sync"
	"time"

	"planp.dev/planp/internal/substrate"
)

// transport is how an endpoint's transmissions reach the peer node: a
// channel (link.go) or a datagram socket (datagram.go).
type transport interface {
	// retain returns a packet the endpoint may hold after Send has
	// returned (a fault delay is pending): the packet itself where Send
	// moved ownership to the link, a private copy where the caller
	// keeps it.
	retain(pkt *substrate.Packet) *substrate.Packet
	// carry puts one copy of pkt on the medium and returns "" or the
	// drop Detail. After a "" the packet belongs to the receiver.
	carry(pkt *substrate.Packet) string
}

// endpoint is one direction of a duplex link: substrate.Iface,
// substrate.FaultPort and substrate.Medium, implemented once for every
// link kind.
type endpoint struct {
	substrate.Port
	node  *Node  // owning node
	label string // "<local>:<peer>" event/metric key
	bw    int64  // nominal bandwidth, bits/s (reported, not enforced)
	tr    transport
	ct    substrate.LinkCounters

	mu    sync.Mutex // guards meter (RateMeter is not internally synchronized)
	meter *substrate.RateMeter
}

// setup wires the endpoint for node's link toward the node named peer.
func (e *endpoint) setup(nw *Net, node *Node, peer string, bandwidthBps int64, tr transport) {
	e.node, e.label, e.bw, e.tr = node, node.Hostname()+":"+peer, bandwidthBps, tr
	e.meter = substrate.NewRateMeter(0)
	e.ct = substrate.NewLinkCounters(nw.reg, e.label)
}

// Send transmits pkt toward the peer node (substrate.Iface) through the
// port's fault layer.
func (e *endpoint) Send(pkt *substrate.Packet) { e.Transmit(e, pkt) }

// Wire reports the endpoint's events under its label on the network's
// bus, and its losses in its registered counters (substrate.Medium).
func (e *endpoint) Wire() (string, substrate.Env, substrate.LinkCounters) {
	return e.label, e.node.net, e.ct
}

// Carry sends one copy now, or after delay on its own timer
// (substrate.Medium). On a datagram link the caller may reuse pkt the
// moment Send returns, so what waits out the delay is the endpoint's
// own copy; a delayed copy the medium refuses when its timer fires is
// Lost. A copy the transport takes is metered, as a netsim wire meters
// it: this is the only place the meter is fed, so every carried copy —
// delayed, duplicated or neither — counts pkt.Size() toward Load.
func (e *endpoint) Carry(pkt *substrate.Packet, delay time.Duration) string {
	if delay > 0 {
		pkt = e.tr.retain(pkt)
		e.node.net.After(delay, func() {
			if reason := e.Carry(pkt, 0); reason != "" {
				substrate.Lost(e, pkt, reason)
			}
		})
		return ""
	}
	size := int64(pkt.Size()) // read first: a carried copy is the peer's
	reason := e.tr.carry(pkt)
	if reason == "" {
		now := e.node.net.Now()
		e.mu.Lock()
		e.meter.Add(now, size)
		e.mu.Unlock()
	}
	return reason
}

// Load returns the measured outbound utilization as a percentage of the
// link's nominal bandwidth, clamped to [0, 100] (substrate.Iface), the
// contract netsim honors, so load-adaptive ASPs behave alike on every
// link of both backends.
func (e *endpoint) Load() int64 {
	now := e.node.net.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.meter.Utilization(now, e.bw)
}

// Bandwidth returns the link's nominal capacity in bits per second
// (substrate.Iface).
func (e *endpoint) Bandwidth() int64 { return e.bw }

// Every link kind is a fault-injectable link endpoint.
var (
	_ substrate.FaultPort = (*Iface)(nil)
	_ substrate.FaultPort = (*UDPIface)(nil)
	_ substrate.FaultPort = (*RemoteIface)(nil)
)

// In-process links: a duplex point-to-point link is a pair of ports
// whose transport hands the packet straight to the peer node's inbox.
// The channel send is the ownership transfer — after it, the packet
// belongs to the receiving node's goroutine.
package rtnet

import (
	"sync/atomic"

	"planp.dev/planp/internal/substrate"
)

// queueCap is the per-interface drop-tail queue bound: at most this
// many packets from one interface may sit unprocessed in the peer's
// inbox before further sends drop.
const queueCap = 512

// Iface is one direction of an in-process duplex link: a port over the
// channel transport.
type Iface struct {
	port
	peer   *Node
	rev    *Iface // reverse-direction endpoint (the "in" iface at peer)
	queued atomic.Int32
}

// NewLink connects a and b with a duplex link of the given nominal
// bandwidth (bits per second — reported by Bandwidth for the ASP
// adaptation primitives, not enforced as a rate limit) and returns the
// two endpoints (a's, b's).
func NewLink(nw *Net, a, b *Node, bandwidthBps int64) (*Iface, *Iface) {
	ab := &Iface{peer: b}
	ba := &Iface{peer: a}
	ab.rev, ba.rev = ba, ab
	ab.setup(nw, a, b.name, bandwidthBps, ab)
	ba.setup(nw, b, a.name, bandwidthBps, ba)
	a.addIface(ab)
	b.addIface(ba)
	return ab, ba
}

// retain: a channel link takes ownership of what it is sent. Unowned
// packets are cloned so the two nodes never share a mutable packet; an
// owned packet's single reference moves to the peer's goroutine.
func (i *Iface) retain(pkt *substrate.Packet) *substrate.Packet {
	if !pkt.Owned() {
		return pkt.Clone()
	}
	return pkt
}

func (i *Iface) admit() string { return "" }

// transmit enqueues pkt at the peer. Drop-tail: if this interface
// already has queueCap packets waiting there, the packet is dropped.
// Admission is the one Add, so concurrent senders cannot overshoot.
func (i *Iface) transmit(pkt *substrate.Packet) string {
	if i.queued.Add(1) > queueCap {
		i.queued.Add(-1)
		return "queue"
	}
	if !i.peer.enqueue(i.retain(pkt), i.rev, &i.queued) {
		i.queued.Add(-1)
		return "queue"
	}
	return ""
}

// Interface satisfaction.
var (
	_ substrate.Iface     = (*Iface)(nil)
	_ substrate.FaultPort = (*Iface)(nil)
)

// Ports: the one link endpoint. Every rtnet link kind — channel,
// loopback-UDP, cross-host — is a port over a transport: the port owns
// what "send", "load" and "drop" mean (fault layer, rate meter, drop
// accounting), the transport only moves a packet to the peer.
package rtnet

import (
	"sync"
	"sync/atomic"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// transport is how a port's transmissions reach the peer node: a
// channel (link.go) or a datagram socket (datagram.go).
type transport interface {
	// retain returns a packet the port may hold after Send has returned
	// (a fault delay is pending): the packet itself where Send moved
	// ownership to the link, a private copy where the caller keeps it.
	retain(pkt *substrate.Packet) *substrate.Packet
	// admit returns "" when the medium takes transmissions right now, or
	// the drop Detail when it does not. A refused packet is not metered:
	// nothing went out.
	admit() string
	// transmit puts one copy of pkt on the medium and returns "" or the
	// drop Detail. After a "" the packet belongs to the receiver.
	transmit(pkt *substrate.Packet) string
}

// port is one direction of a duplex link: substrate.Iface and
// substrate.FaultPort, implemented once for every link kind.
type port struct {
	node  *Node  // owning node
	label string // "<local>:<peer>" event/metric key
	bw    int64  // nominal bandwidth, bits/s (reported, not enforced)
	tr    transport

	mu    sync.Mutex // guards meter (RateMeter is not internally synchronized)
	meter *substrate.RateMeter

	fault atomic.Pointer[substrate.FaultFunc] // boxed fault layer, nil when none

	drops      *obs.Counter
	faultDrops *obs.Counter
}

// setup wires the port for node's link toward the node named peer.
func (p *port) setup(nw *Net, node *Node, peer string, bandwidthBps int64, tr transport) {
	p.node, p.label, p.bw, p.tr = node, node.name+":"+peer, bandwidthBps, tr
	p.meter = substrate.NewRateMeter(0)
	p.drops = nw.reg.Counter("link." + p.label + ".dropped_pkts")
	p.faultDrops = nw.reg.Counter("link." + p.label + ".fault_dropped_pkts")
}

// SetFault installs (or, with nil, removes) the port's fault layer
// (substrate.FaultPort). Safe while traffic flows. A port is one
// direction, so chaos wired here degrades only local-outbound traffic.
func (p *port) SetFault(f substrate.FaultFunc) {
	if f == nil {
		p.fault.Store(nil)
		return
	}
	p.fault.Store(&f)
}

// Send transmits pkt toward the peer node (substrate.Iface), applying
// the fault layer's verdict when one is installed: Drop wins, Corrupt
// rewrites a private copy, Dup extra clones go out alongside the
// original, and Delay holds every copy back on a real timer.
func (p *port) Send(pkt *substrate.Packet) {
	f := p.fault.Load()
	if f == nil {
		p.transmit(pkt)
		return
	}
	act := (*f)(pkt)
	if act.Drop {
		p.drop(pkt, p.faultDrops, "fault")
		return
	}
	if act.Corrupt {
		pkt = substrate.CorruptPayload(pkt, act.CorruptBit)
	}
	if act.Delay > 0 {
		// On a datagram link the caller may reuse pkt the moment Send
		// returns; what waits out the delay must be the port's own.
		pkt = p.tr.retain(pkt)
	}
	// Duplicates share the one verdict. They are cloned BEFORE the
	// original is transmitted: once a channel link has enqueued an owned
	// packet it belongs to the peer's goroutine, which may mutate it in
	// place. Clones share only the immutable payload.
	var dups []*substrate.Packet
	if act.Dup > 0 {
		dups = make([]*substrate.Packet, act.Dup)
		for k := range dups {
			dups[k] = pkt.Clone()
		}
	}
	if act.Delay > 0 {
		p.node.net.After(act.Delay, func() { p.transmitAll(dups, pkt) })
		return
	}
	p.transmitAll(dups, pkt)
}

func (p *port) transmitAll(dups []*substrate.Packet, pkt *substrate.Packet) {
	for _, d := range dups {
		p.transmit(d)
	}
	p.transmit(pkt)
}

// transmit sends one copy: admission, meter, transport. This is the
// only place the meter is fed, so every transmitted copy — delayed,
// duplicated or neither — counts pkt.Size() toward Load.
func (p *port) transmit(pkt *substrate.Packet) {
	reason := p.tr.admit()
	if reason == "" {
		sz := int64(pkt.Size())
		now := p.node.net.Now()
		p.mu.Lock()
		p.meter.Add(now, sz)
		p.mu.Unlock()
		reason = p.tr.transmit(pkt)
	}
	if reason != "" {
		p.drop(pkt, p.drops, reason)
	}
}

// drop counts one lost packet under ct and publishes it. This is the
// only drop publisher, so a drop with no parsed packet (pkt nil:
// "codec-reject", "no-handshake") is still a KindDrop event on every
// link kind, just without packet fields.
func (p *port) drop(pkt *substrate.Packet, ct *obs.Counter, reason string) {
	ct.Inc()
	if bus := p.node.net.bus; bus.Active() {
		bus.Publish(substrate.PacketEvent(obs.KindDrop, p.node.net.Now(), p.label, pkt, reason))
	}
}

// Load returns the measured outbound utilization as a percentage of the
// link's nominal bandwidth, clamped to [0, 100] (substrate.Iface) —
// the same contract netsim honors, so load-adaptive ASPs (the §3.1
// audio router's 50/80% thresholds) behave identically on both
// backends and on every link kind.
func (p *port) Load() int64 {
	now := p.node.net.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.meter.Utilization(now, p.bw)
}

// Bandwidth returns the link's nominal capacity in bits per second
// (substrate.Iface).
func (p *port) Bandwidth() int64 { return p.bw }

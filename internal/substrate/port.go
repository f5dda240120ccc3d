// Ports: the link endpoint, written once for every backend: the fault
// layer, the rule that applies its verdict, and the one publisher of a
// link's enqueue and drop events. What moves a copy toward the peer is
// the backend's Medium. netsim's Iface and rtnet's link kinds embed a
// Port the way their nodes embed a Stack.
package substrate

import (
	"sync/atomic"
	"time"

	"planp.dev/planp/internal/obs"
)

// Medium is what a Port transmits over: one backend's link direction.
type Medium interface {
	// Carry puts one copy of pkt on the medium, to arrive delay later
	// than an undelayed copy would, and returns "" or the reason the
	// copy was lost (a static string: the drop event's Detail). After a
	// "" the copy is the medium's. A medium that holds a delayed copy
	// back and loses it when the delay ends reports that with Lost.
	Carry(pkt *Packet, delay time.Duration) string
	// Wire returns what the port reports under: the label of its
	// events, the environment whose bus and clock they go to, and its
	// loss counters.
	Wire() (label string, env Env, ct LinkCounters)
}

// Port is one direction of a link: embed it in the endpoint, whose
// Send is Transmit over the endpoint's medium. It holds the fault layer
// and nothing else, because netsim builds tens of thousands of
// interfaces per city and each must stay 64 bytes.
type Port struct {
	fault atomic.Pointer[FaultFunc] // boxed fault layer, nil when none
}

// SetFault installs (or, with nil, removes) the port's fault layer
// (FaultPort). Safe while traffic flows. A port is one direction, so a
// fault set here degrades only traffic leaving through it.
func (p *Port) SetFault(f FaultFunc) {
	if f == nil {
		p.fault.Store(nil)
		return
	}
	p.fault.Store(&f)
}

// Transmit sends pkt out of the port over m, applying the fault
// layer's verdict by the rule FaultAction states.
func (p *Port) Transmit(m Medium, pkt *Packet) {
	f := p.fault.Load()
	if f == nil {
		carry(m, pkt, 0)
		return
	}
	act := (*f)(pkt)
	if act.Drop {
		Lost(m, pkt, "fault")
		return
	}
	if act.Corrupt {
		pkt = CorruptPayload(pkt, act.CorruptBit)
	}
	// Duplicates are cloned before the original leaves: a channel
	// medium hands an owned packet to the peer's goroutine, which may
	// rewrite it in place.
	dups := make([]*Packet, act.Dup)
	for k := range dups {
		dups[k] = pkt.Clone()
	}
	carry(m, pkt, act.Delay)
	for _, d := range dups {
		carry(m, d, act.Delay)
	}
}

// carry offers one copy to m and publishes the outcome: KindEnqueue
// when the medium took it, a counted drop when it did not.
func carry(m Medium, pkt *Packet, delay time.Duration) {
	label, env, _ := m.Wire()
	bus := env.Events()
	var ev obs.Event
	if bus.Active() {
		// Built before Carry: a copy the medium took belongs to the
		// peer, whose goroutine may rewrite it.
		ev = PacketEvent(obs.KindEnqueue, env.Now(), label, pkt, "")
	}
	if reason := m.Carry(pkt, delay); reason != "" {
		Lost(m, pkt, reason)
	} else if bus.Active() {
		bus.Publish(ev)
	}
}

// Lost counts one copy m lost and publishes the drop: the one wire-drop
// publisher, which a medium also calls for a copy it loses outside
// Carry (a delayed copy refused when its delay ends, a datagram refused
// on arrival; pkt is nil when it did not parse, and the event then has
// no packet fields). A "fault" drop counts apart from the medium's own
// losses.
func Lost(m Medium, pkt *Packet, reason string) {
	label, env, ct := m.Wire()
	if reason == "fault" {
		ct.FaultDropPkts.Inc()
	} else {
		ct.DropPkts.Inc()
	}
	if bus := env.Events(); bus.Active() {
		bus.Publish(PacketEvent(obs.KindDrop, env.Now(), label, pkt, reason))
	}
}

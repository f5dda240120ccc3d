// Shared segments: one medium that every attachment sends onto and
// that fans each frame out to every other attachment whose NIC filter
// (substrate.Stack.Accepts) takes it — the client LANs of §3.1–§3.3,
// where the capture ASPs listen promiscuously. An attachment is an
// endpoint like a link's, so the port's fault verdict and events are
// the same; what the segment's attachments share is the medium: one
// drop-tail bound, one meter and one pair of loss counters, so every
// attachment reads the same Load, as on netsim. The medium also carries
// one frame at a time, so every attachment sees the segment's frames in
// one order.
package rtnet

import (
	"sync"
	"sync/atomic"

	"planp.dev/planp/internal/substrate"
)

// Segment is a shared in-process medium of a nominal bandwidth.
type Segment struct {
	name   string
	bw     int64
	ct     substrate.LinkCounters // under "link.<name>.*"
	m      *meter
	queued atomic.Int32 // copies waiting in members' inboxes: the one drop-tail bound

	// mu serializes Attach and each frame's fan-out, from reading the
	// member list to the last enqueue: a member that answers a frame at
	// once cannot put the answer on the segment before a later member
	// has the frame, as on netsim and a shared Ethernet. enqueue never
	// blocks, so a sender holds mu only briefly.
	mu      sync.Mutex
	members []*SegIface
}

// NewSegment creates a segment of the given nominal bandwidth (bits per
// second, reported by Load and Bandwidth, not enforced as a rate limit).
func NewSegment(nw *Net, name string, bandwidthBps int64) *Segment {
	return &Segment{name: name, bw: bandwidthBps, m: newMeter(), ct: substrate.NewLinkCounters(nw.reg, name)}
}

// SegIface is one node's attachment to a Segment: an endpoint whose
// transport is the segment's fan-out.
type SegIface struct {
	endpoint
	seg     *Segment
	promisc bool
}

// Attach connects n to the segment and returns its attachment; a
// promiscuous one takes every frame (capture ASPs, §3.3). Safe while
// traffic flows: the new member sees the frames carried after it.
func (s *Segment) Attach(n *Node, promisc bool) *SegIface {
	a := &SegIface{seg: s, promisc: promisc}
	a.endpoint = endpoint{node: n, label: n.Hostname() + ":" + s.name, bw: s.bw, tr: a, ct: s.ct, m: s.m}
	s.mu.Lock()
	s.members = append(s.members, a)
	s.mu.Unlock()
	n.AddIface(a)
	return a
}

// retain: as on a channel link, an unowned packet is copied so that the
// sender never shares a mutable packet with a receiver.
func (a *SegIface) retain(pkt *substrate.Packet) *substrate.Packet {
	if !pkt.Owned() {
		return pkt.Clone()
	}
	return pkt
}

// carry offers one frame to every other member whose filter takes it.
// Drop-tail admits the frame's copies together or not at all; copies
// shared by more than one receiver are disowned, as netsim's segment
// does, and a copy a full inbox refuses is Lost on its own, once the
// segment is free again (Lost publishes to the bus's subscribers).
func (a *SegIface) carry(pkt *substrate.Packet) string {
	pkt, lost, reason := a.fanOut(pkt)
	for ; lost > 0; lost-- {
		substrate.Lost(a, pkt, "queue")
	}
	return reason
}

// fanOut is carry's work under the segment's lock. It returns the frame
// as handed over and how many copies full inboxes refused.
func (a *SegIface) fanOut(pkt *substrate.Packet) (*substrate.Packet, int, string) {
	s := a.seg
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, m := range s.members {
		if m != a && m.node.Accepts(pkt, m.promisc) {
			n++
		}
	}
	if n == 0 {
		return pkt, 0, ""
	}
	if s.queued.Add(int32(n)) > queueCap {
		s.queued.Add(-int32(n))
		return pkt, 0, "queue"
	}
	pkt = a.retain(pkt)
	if n > 1 {
		pkt.Disown()
	}
	sent, lost := 0, 0
	for _, m := range s.members {
		// Once the last copy is handed over, pkt may be its receiver's.
		if sent == n || m == a || !m.node.Accepts(pkt, m.promisc) {
			continue
		}
		sent++
		if !m.node.enqueue(pkt, m, &s.queued) {
			s.queued.Add(-1)
			lost++
		}
	}
	s.queued.Add(int32(sent - n)) // a member joined or left a group meanwhile
	return pkt, lost, ""
}

var _ substrate.FaultPort = (*SegIface)(nil)

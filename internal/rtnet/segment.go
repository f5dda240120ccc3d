// Shared segments: one medium that every attachment sends onto and
// that fans each frame out to every other attachment whose NIC filter
// (substrate.Stack.Accepts) takes it — the client LANs of §3.1–§3.3,
// where the capture ASPs listen promiscuously. An attachment is an
// endpoint like a link's, so the port's fault verdict and events are
// the same; what the segment's attachments share is the medium: one
// drop-tail bound, one meter and one pair of loss counters, so every
// attachment reads the same Load, as on netsim.
package rtnet

import (
	"sync"
	"sync/atomic"

	"planp.dev/planp/internal/substrate"
)

// Segment is a shared in-process medium of a nominal bandwidth.
type Segment struct {
	name    string
	bw      int64
	ct      substrate.LinkCounters // under "link.<name>.*"
	m       *meter
	queued  atomic.Int32 // copies waiting in members' inboxes: the one drop-tail bound
	mu      sync.Mutex   // serializes Attach
	members atomic.Pointer[[]*SegIface]
}

// NewSegment creates a segment of the given nominal bandwidth (bits per
// second, reported by Load and Bandwidth, not enforced as a rate limit).
func NewSegment(nw *Net, name string, bandwidthBps int64) *Segment {
	s := &Segment{name: name, bw: bandwidthBps, m: newMeter(), ct: substrate.NewLinkCounters(nw.reg, name)}
	s.members.Store(&[]*SegIface{})
	return s
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
// traffic flows: senders read the member list through one atomic load.
func (s *Segment) Attach(n *Node, promisc bool) *SegIface {
	a := &SegIface{seg: s, promisc: promisc}
	a.endpoint = endpoint{node: n, label: n.Hostname() + ":" + s.name, bw: s.bw, tr: a, ct: s.ct, m: s.m}
	s.mu.Lock()
	members := append(append([]*SegIface(nil), *s.members.Load()...), a)
	s.members.Store(&members)
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
// does, and a copy a full inbox refuses is Lost on its own.
func (a *SegIface) carry(pkt *substrate.Packet) string {
	s := a.seg
	members := *s.members.Load()
	n := 0
	for _, m := range members {
		if m != a && m.node.Accepts(pkt, m.promisc) {
			n++
		}
	}
	if n == 0 {
		return ""
	}
	if s.queued.Add(int32(n)) > queueCap {
		s.queued.Add(-int32(n))
		return "queue"
	}
	pkt = a.retain(pkt)
	if n > 1 {
		pkt.Disown()
	}
	sent := 0
	for _, m := range members {
		// Once the last copy is handed over, pkt may be its receiver's.
		if sent == n || m == a || !m.node.Accepts(pkt, m.promisc) {
			continue
		}
		sent++
		if !m.node.enqueue(pkt, m, &s.queued) {
			s.queued.Add(-1)
			substrate.Lost(a, pkt, "queue")
		}
	}
	s.queued.Add(int32(sent - n)) // a member joined or left a group meanwhile
	return ""
}

var _ substrate.FaultPort = (*SegIface)(nil)

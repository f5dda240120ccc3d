// Links and segments: the two transmission media. A Link is a duplex
// point-to-point wire (router uplinks); a Segment is a shared Ethernet
// broadcast domain (the client LAN of figure 5, where the load generator
// competes with audio traffic, and the MPEG experiment's shared medium).
package netsim

import (
	"fmt"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// Medium is the transmission substrate an interface attaches to.
type Medium interface {
	// send serializes pkt from the given interface and delivers it, or
	// returns the drop reason; extra is added to the propagation delay
	// (chaos-injected latency).
	send(from *Iface, pkt *Packet, extra time.Duration) string
	// Bandwidth is the medium capacity in bits/s (per direction for
	// links, shared for segments).
	Bandwidth() int64
	// dir returns the wire carrying from's outgoing traffic.
	dir(from *Iface) *wire
}

// Iface attaches a node to a medium: a substrate.Port whose medium is
// this interface's direction of the link or segment.
type Iface struct {
	substrate.Port
	Node   *Node
	Name   string
	medium Medium

	// Promisc delivers frames addressed to other hosts up to the node
	// (needed by capture ASPs such as the MPEG client, §3.3).
	Promisc bool

	// peer is the other endpoint for point-to-point links (nil on
	// segments).
	peer *Iface
}

// Peer returns the interface at the other end of a point-to-point link,
// or nil for segment attachments.
func (i *Iface) Peer() *Iface { return i.peer }

// Bandwidth returns the attached medium's capacity.
func (i *Iface) Bandwidth() int64 { return i.medium.Bandwidth() }

// Load returns the utilization percentage of this interface's outgoing
// direction.
func (i *Iface) Load() int64 {
	return i.medium.dir(i).meter.Utilization(i.Node.sh.now, i.medium.Bandwidth())
}

// Send transmits pkt out this interface (substrate.Iface) through the
// port's fault layer.
func (i *Iface) Send(pkt *Packet) { i.Transmit(i, pkt) }

// Carry hands one copy to the medium, its arrival delayed by delay
// (substrate.Medium).
func (i *Iface) Carry(pkt *Packet, delay time.Duration) string {
	return i.medium.send(i, pkt, delay)
}

// Wire reports the interface's events under its name on the owning
// shard, and its losses in its wire (substrate.Medium).
func (i *Iface) Wire() (string, substrate.Env, substrate.LinkCounters) {
	w := i.medium.dir(i)
	return i.Name, &i.Node.env, substrate.LinkCounters{DropPkts: &w.dropped, FaultDropPkts: &w.faultDropped}
}

// ---------------------------------------------------------------------------
// The wire: one serialization resource

// wire is the state of one serialization resource — one direction of a
// Link, or the whole of a Segment — and the one place drop-tail
// queueing, serialization time and load metering are computed, and
// where the port's loss counters live. It is only ever touched by the
// shard of the sending node (a direction has one sender; a segment's
// attachments share an island), so sharded runs mutate it without
// locks.
type wire struct {
	busyUntil    time.Duration
	meter        *RateMeter
	dropped      obs.Counter // queue-overflow drops
	faultDropped obs.Counter // chaos-injected drops (distinct by contract)
}

// serialize queues pkt behind whatever is still waiting to finish
// serialization at now and returns the time its last bit leaves the
// sender; ok is false when the backlog exceeds queueLimit bytes and the
// packet is tail-dropped.
func (w *wire) serialize(now time.Duration, bandwidth, queueLimit int64, pkt *Packet) (done time.Duration, ok bool) {
	backlogBits := int64(0)
	if w.busyUntil > now {
		backlogBits = int64(w.busyUntil-now) * bandwidth / int64(time.Second)
	}
	if backlogBits/8 > queueLimit {
		return 0, false
	}
	size := int64(pkt.Size())
	w.busyUntil = max(now, w.busyUntil) + time.Duration(size*8*int64(time.Second)/bandwidth)
	w.meter.Add(now, size)
	return w.busyUntil, true
}

// ---------------------------------------------------------------------------
// Point-to-point link

// Link is a full-duplex point-to-point link with serialization delay,
// propagation delay, and a drop-tail queue bounded in bytes.
type Link struct {
	bandwidth  int64 // bits/s per direction
	delay      time.Duration
	queueLimit int64 // bytes of backlog before tail drop
	boundary   bool  // eligible shard cut (LinkConfig.ShardBoundary)

	a, b *Iface
	dirs [2]wire // 0: a->b, 1: b->a
}

var _ Medium = (*Link)(nil)

// LinkConfig configures a point-to-point link.
type LinkConfig struct {
	Bandwidth  int64         // bits/s; required
	Delay      time.Duration // propagation delay (default 1ms)
	QueueLimit int64         // bytes (default 64 KiB)

	// ShardBoundary marks the link as a permissible cut point for
	// sharded runs (New's WithShards): the topology is partitioned into
	// islands connected only by boundary links, and the minimum boundary
	// Delay that actually crosses shards becomes the PDES lookahead (the
	// parallel window length). Boundary links on ordinary single-shard
	// runs behave like any other link.
	ShardBoundary bool
}

func (c *LinkConfig) fill() {
	if c.Delay == 0 {
		c.Delay = time.Millisecond
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 64 << 10
	}
}

// Connect wires two nodes with a duplex link and returns it. Interface
// names are derived from the peer node's name.
func Connect(sim *Simulator, a, b *Node, cfg LinkConfig) *Link {
	sim.assertMutable()
	cfg.fill()
	l := &Link{bandwidth: cfg.Bandwidth, delay: cfg.Delay, queueLimit: cfg.QueueLimit, boundary: cfg.ShardBoundary}
	l.dirs[0].meter = NewRateMeter(DefaultMeterWindow)
	l.dirs[1].meter = NewRateMeter(DefaultMeterWindow)
	l.a = &Iface{Node: a, Name: fmt.Sprintf("%s->%s", a.Name, b.Name), medium: l}
	l.b = &Iface{Node: b, Name: fmt.Sprintf("%s->%s", b.Name, a.Name), medium: l}
	l.a.peer, l.b.peer = l.b, l.a
	a.AddIface(l.a)
	b.AddIface(l.b)
	sim.links = append(sim.links, l)
	return l
}

// Bandwidth implements Medium.
func (l *Link) Bandwidth() int64 { return l.bandwidth }

// Ifaces returns the link's two interfaces in Connect argument order.
func (l *Link) Ifaces() [2]*Iface { return [2]*Iface{l.a, l.b} }

// dir implements Medium.
func (l *Link) dir(from *Iface) *wire {
	if from == l.a {
		return &l.dirs[0]
	}
	return &l.dirs[1]
}

// Dropped returns the packets dropped by queue overflow in the
// direction out of from (chaos-injected drops are counted separately;
// see FaultDropped).
func (l *Link) Dropped(from *Iface) int64 { return l.dir(from).dropped.Value() }

// FaultDropped returns the packets dropped by injected faults in the
// direction out of from.
func (l *Link) FaultDropped(from *Iface) int64 { return l.dir(from).faultDropped.Value() }

// send implements Medium: serialize (queueing behind earlier traffic),
// propagate, deliver to the peer.
func (l *Link) send(from *Iface, pkt *Packet, extra time.Duration) string {
	sh := from.Node.sh
	done, ok := l.dir(from).serialize(sh.now, l.bandwidth, l.queueLimit, pkt)
	if !ok {
		return "queue"
	}
	sh.atReceive(done+l.delay+extra, pkt, from.peer)
	return ""
}

// ---------------------------------------------------------------------------
// Shared segment

// Segment is a shared broadcast domain: every transmitted frame reaches
// every other attached interface; all senders share the capacity. Frames
// addressed to other hosts reach a node only if its interface is
// promiscuous or the node forwards traffic (routers).
type Segment struct {
	sim        *Simulator
	Name       string
	bandwidth  int64
	delay      time.Duration
	queueLimit int64

	wire   wire // the one capacity every sender shares
	ifaces []*Iface
}

var _ Medium = (*Segment)(nil)

// NewSegment creates a shared segment with the given capacity. Segments
// are never shard boundaries: every attached node ends up in one island
// (the shared busyUntil state must stay on one shard).
func NewSegment(sim *Simulator, name string, cfg LinkConfig) *Segment {
	sim.assertMutable()
	cfg.fill()
	seg := &Segment{
		sim: sim, Name: name, bandwidth: cfg.Bandwidth, delay: cfg.Delay,
		queueLimit: cfg.QueueLimit, wire: wire{meter: NewRateMeter(DefaultMeterWindow)},
	}
	sim.segs = append(sim.segs, seg)
	return seg
}

// Attach connects a node to the segment and returns the new interface.
func (s *Segment) Attach(n *Node) *Iface {
	s.sim.assertMutable()
	ifc := &Iface{Node: n, Name: fmt.Sprintf("%s@%s", n.Name, s.Name), medium: s}
	s.ifaces = append(s.ifaces, ifc)
	n.AddIface(ifc)
	return ifc
}

// Bandwidth implements Medium.
func (s *Segment) Bandwidth() int64 { return s.bandwidth }

// dir implements Medium: the capacity is shared, so every attached
// interface observes the same meter and loss counters.
func (s *Segment) dir(*Iface) *wire { return &s.wire }

// Dropped returns frames dropped due to backlog on the shared medium
// (chaos-injected drops are counted separately; see FaultDropped).
func (s *Segment) Dropped() int64 { return s.wire.dropped.Value() }

// FaultDropped returns frames dropped by injected faults on the shared
// medium.
func (s *Segment) FaultDropped() int64 { return s.wire.faultDropped.Value() }

// send implements Medium: one shared serialization resource
// (approximating CSMA/CD without collisions), then broadcast delivery.
func (s *Segment) send(from *Iface, pkt *Packet, extra time.Duration) string {
	sh := from.Node.sh
	done, ok := s.wire.serialize(sh.now, s.bandwidth, s.queueLimit, pkt)
	if !ok {
		return "queue"
	}
	arrive := done + s.delay + extra
	// Broadcast delivery shares one packet pointer among all receivers,
	// so with more than one the packet can no longer be exclusively
	// owned by any of them (see Packet ownership).
	receivers := 0
	for _, ifc := range s.ifaces {
		if ifc != from && ifc.Node.Accepts(pkt, ifc.Promisc) {
			receivers++
		}
	}
	if receivers > 1 {
		pkt.Disown()
	}
	for _, ifc := range s.ifaces {
		if ifc == from || !ifc.Node.Accepts(pkt, ifc.Promisc) {
			continue
		}
		sh.atReceive(arrive, pkt, ifc)
	}
	return ""
}

// Nodes: hosts and routers. A node owns interfaces, a static routing
// table, multicast group state, local application bindings, and an
// optional PLAN-P processing hook (the IP/PLAN-P layer of figure 1,
// provided by internal/planprt).
package netsim

import (
	"fmt"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// Processor and AppFunc are the substrate hook types (see substrate.go
// for the aliases and substrate.Processor for the contract).

// appKey identifies a local transport binding.
type appKey struct {
	proto uint8
	port  uint16
}

// Stats is a point-in-time snapshot of a node's traffic counters,
// returned by Node.Stats(). The live counters themselves live in the
// simulation's metrics registry under "node.<name>.*".
type Stats struct {
	ReceivedPkts  int64
	ReceivedBytes int64
	SentPkts      int64
	SentBytes     int64
	ForwardedPkts int64
	DeliveredPkts int64
	DroppedPkts   int64 // TTL expiry, no route, no binding
}

// Node is a host or router.
type Node struct {
	Name string
	Addr Addr
	sim  *Simulator
	sh   *shard // owning shard (shard 0 until a sharded run seals)
	ix   int    // creation index (island partitioning)
	env  nodeEnv

	// Forwarding enables router behavior: packets addressed elsewhere
	// are forwarded instead of dropped.
	Forwarding bool

	// PerPacketCPU, when nonzero, serializes received-packet processing
	// through the node's CPU at this cost per packet. This is how the
	// HTTP experiment models the gateway as a contention point (§3.2):
	// throughput caps at 1/PerPacketCPU packets per second.
	PerPacketCPU time.Duration
	cpuBusyUntil time.Duration

	// Processor, when set, is the downloaded PLAN-P layer.
	Processor Processor

	// down marks a crashed node (see Crash/Restart): all traffic
	// through it is discarded until restart.
	down bool

	ifaces    []*Iface
	subIfaces []substrate.Iface // same interfaces, substrate-typed (Interfaces())
	routes    map[Addr]*Iface   // host routes
	defaultIf *Iface            // default route
	mroutes   map[Addr][]*Iface // multicast forwarding: group -> out ifaces
	joined    map[Addr]bool     // locally joined multicast groups
	apps      map[appKey]AppFunc
	rawApps   []AppFunc // receive every locally delivered packet
	taps      []AppFunc // observe every packet seen by the node

	ct substrate.NodeCounters

	ipID uint32
}

// NewNode registers a node with the simulator. Names and addresses must
// be unique.
func NewNode(sim *Simulator, name string, addr Addr) *Node {
	sim.assertMutable()
	if sim.nodes[addr] != nil {
		panic(fmt.Sprintf("netsim: duplicate node address %s", addr))
	}
	if sim.nameIx[name] != nil {
		panic(fmt.Sprintf("netsim: duplicate node name %q", name))
	}
	n := &Node{
		Name: name, Addr: addr, sim: sim,
		sh:      sim.shards[0],
		ix:      len(sim.order),
		routes:  map[Addr]*Iface{},
		mroutes: map[Addr][]*Iface{},
		joined:  map[Addr]bool{},
		apps:    map[appKey]AppFunc{},
		ct:      substrate.NewNodeCounters(sim.reg, name),
	}
	n.env.n = n
	sim.order = append(sim.order, n)
	sim.nodes[addr] = n
	sim.nameIx[name] = n
	return n
}

// Sim returns the owning simulator.
func (n *Node) Sim() *Simulator { return n.sim }

// Stats returns a snapshot of the node's traffic counters: their values
// in the registry, which a node counts straight into, so the two agree
// at every instant of a run.
func (n *Node) Stats() Stats {
	return Stats{
		ReceivedPkts:  n.ct.RxPkts.Value(),
		ReceivedBytes: n.ct.RxBytes.Value(),
		SentPkts:      n.ct.TxPkts.Value(),
		SentBytes:     n.ct.TxBytes.Value(),
		ForwardedPkts: n.ct.FwdPkts.Value(),
		DeliveredPkts: n.ct.DlvPkts.Value(),
		DroppedPkts:   n.ct.DropPkts.Value(),
	}
}

// drop counts a dropped packet and publishes the drop event with the
// given reason (a static string: "ttl", "no-route", "no-binding").
func (n *Node) drop(pkt *Packet, reason string) {
	n.ct.DropPkts.Inc()
	if n.sh.bus.Active() {
		n.emit(KindDrop, pkt, reason)
	}
}

// emit publishes one packet event for this node on its shard's bus
// (the global bus in single-shard runs). Callers on hot paths guard
// with n.sh.bus.Active() so the Event is never built when nobody
// listens.
func (n *Node) emit(kind obs.Kind, pkt *Packet, detail string) {
	n.sh.bus.Publish(substrate.PacketEvent(kind, n.sh.now, n.Name, pkt, detail))
}

// Event kind aliases so in-package call sites read naturally.
const (
	KindEnqueue = obs.KindEnqueue
	KindDrop    = obs.KindDrop
	KindForward = obs.KindForward
	KindDeliver = obs.KindDeliver
)

func (n *Node) addIface(i *Iface) {
	n.ifaces = append(n.ifaces, i)
	n.subIfaces = append(n.subIfaces, i)
}

// Ifaces returns the node's interfaces.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

// AddRoute installs a host route: traffic to dst leaves via ifc.
func (n *Node) AddRoute(dst Addr, ifc *Iface) { n.routes[dst] = ifc }

// SetDefaultRoute installs the default route.
func (n *Node) SetDefaultRoute(ifc *Iface) { n.defaultIf = ifc }

// RouteTo resolves the outgoing interface for dst (nil if unroutable).
// For multicast groups it returns the first multicast route, which is
// the interface whose load the adaptation primitives measure.
func (n *Node) RouteTo(dst Addr) *Iface {
	if dst.IsMulticast() {
		if m := n.mroutes[dst]; len(m) > 0 {
			return m[0]
		}
		return n.defaultIf
	}
	if ifc, ok := n.routes[dst]; ok {
		return ifc
	}
	return n.defaultIf
}

// TransmitFrom routes pkt out of any interface except in, reporting
// whether it was sent. It is the PLAN-P layer's OnRemote transmission
// path: the program has already decided the packet's fate, so no TTL
// handling happens here. in is substrate-typed so processors written
// against the abstract substrate can pass their incoming interface
// straight through; nil means no exclusion.
func (n *Node) TransmitFrom(pkt *Packet, in substrate.Iface) bool {
	inIfc, _ := in.(*Iface)
	return n.transmit(pkt, inIfc)
}

// AddMulticastRoute makes this node forward group traffic out ifc
// (routers on the multicast tree).
func (n *Node) AddMulticastRoute(group Addr, ifc *Iface) {
	n.mroutes[group] = append(n.mroutes[group], ifc)
}

// JoinGroup subscribes the node to a multicast group for local delivery.
func (n *Node) JoinGroup(group Addr) { n.joined[group] = true }

// BindUDP delivers local UDP traffic for port to fn.
func (n *Node) BindUDP(port uint16, fn AppFunc) { n.apps[appKey{ProtoUDP, port}] = fn }

// BindTCP delivers local TCP traffic for port to fn.
func (n *Node) BindTCP(port uint16, fn AppFunc) { n.apps[appKey{ProtoTCP, port}] = fn }

// BindRaw receives every packet delivered locally regardless of port
// (after specific bindings).
func (n *Node) BindRaw(fn AppFunc) { n.rawApps = append(n.rawApps, fn) }

// Tap observes every packet the node receives from the network,
// including transit traffic (monitoring tools; PLAN-P programs should
// use Processor instead).
func (n *Node) Tap(fn AppFunc) { n.taps = append(n.taps, fn) }

// NextIPID returns a fresh IP identification value for originated
// packets.
func (n *Node) NextIPID() uint32 {
	n.ipID++
	return n.ipID
}

// Send originates pkt from this node: local destinations deliver
// directly, everything else routes out an interface. Locally originated
// packets do not pass through the local PLAN-P layer (the layer
// processes network traffic, figure 1).
func (n *Node) Send(pkt *Packet) {
	// A crashed node originates nothing; application timers that fire
	// while it is down lose their packets.
	if n.down {
		n.drop(pkt, "crashed")
		return
	}
	if pkt.IP.ID == 0 {
		pkt.IP.ID = n.NextIPID()
	}
	n.ct.TxPkts.Inc()
	n.ct.TxBytes.Add(int64(pkt.Size()))
	if pkt.IP.Dst == n.Addr {
		n.deliverLocal(pkt)
		return
	}
	if !n.transmit(pkt, nil) {
		n.drop(pkt, "no-route")
	}
}

// transmit routes pkt out (excluding the incoming interface for
// multicast and split-horizon suppression) and reports whether the
// packet was sent anywhere.
func (n *Node) transmit(pkt *Packet, in *Iface) bool {
	if dst := pkt.IP.Dst; dst.IsMulticast() {
		routes := n.mroutes[dst]
		// Multicast fan-out shares one packet pointer across the outgoing
		// media, so with more than one destination nobody downstream may
		// reuse it in place.
		if pkt.Owned() {
			outs := 0
			for _, ifc := range routes {
				if ifc != in {
					outs++
				}
			}
			if outs > 1 {
				pkt.Disown()
			}
		}
		sent := false
		for _, ifc := range routes {
			if ifc == in {
				continue
			}
			ifc.Send(pkt)
			sent = true
		}
		// Hosts originating multicast without mroutes use the default
		// interface.
		if !sent && in == nil {
			if ifc := n.defaultIf; ifc != nil {
				ifc.Send(pkt)
				sent = true
			}
		}
		return sent
	}
	ifc := n.RouteTo(pkt.IP.Dst)
	if ifc == nil || ifc == in {
		return false
	}
	ifc.Send(pkt)
	return true
}

// Crash takes the node down (substrate.Crasher): until Restart, every
// packet it receives or originates is discarded (counted as drops with
// Detail "crashed") and the installed PLAN-P processor is removed — the
// state loss of a killed daemon. Routes, bindings, and multicast state
// survive; they are configuration, not downloaded state.
func (n *Node) Crash() {
	n.down = true
	n.Processor = nil
	n.cpuBusyUntil = 0
}

// Restart brings a crashed node back up, bare: no processor is
// installed until something (a fleet redeploy) downloads one.
func (n *Node) Restart() { n.down = false }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// Receive is called by media when a packet arrives on ifc. When the
// node models CPU cost, processing is serialized behind earlier packets.
func (n *Node) Receive(pkt *Packet, in *Iface) {
	if n.down {
		n.drop(pkt, "crashed")
		return
	}
	if n.PerPacketCPU > 0 {
		start := n.sh.now
		if n.cpuBusyUntil > start {
			start = n.cpuBusyUntil
		}
		n.cpuBusyUntil = start + n.PerPacketCPU
		n.sh.atReceiveNow(n.cpuBusyUntil, n, pkt, in)
		return
	}
	n.receiveNow(pkt, in)
}

func (n *Node) receiveNow(pkt *Packet, in *Iface) {
	// A crash can land between the CPU-serialization schedule and this
	// post-CPU half; packets caught in that window die with the node.
	if n.down {
		n.drop(pkt, "crashed")
		return
	}
	n.ct.RxPkts.Inc()
	n.ct.RxBytes.Add(int64(pkt.Size()))
	if len(n.taps) > 0 {
		// A tap may retain the packet, so it can no longer be reused in
		// place by a downstream forward.
		pkt.Disown()
		for _, tap := range n.taps {
			tap(pkt)
		}
	}
	if n.Processor != nil && n.Processor.Process(pkt, in) {
		return
	}
	n.defaultProcess(pkt, in)
}

// defaultProcess is standard IP behavior: deliver locally, forward if a
// router, drop otherwise.
func (n *Node) defaultProcess(pkt *Packet, in *Iface) {
	dst := pkt.IP.Dst
	switch {
	case dst == n.Addr || dst == 0xFFFFFFFF:
		n.deliverLocal(pkt)
	case dst.IsMulticast():
		if n.joined[dst] {
			n.deliverLocal(pkt)
		}
		if n.Forwarding {
			n.forward(pkt, in)
		}
	case n.Forwarding:
		n.forward(pkt, in)
	default:
		n.drop(pkt, "no-route")
	}
}

// DeliverLocal passes pkt up to local applications; used by the PLAN-P
// layer's deliver primitive as well as default processing.
func (n *Node) DeliverLocal(pkt *Packet) { n.deliverLocal(pkt) }

func (n *Node) deliverLocal(pkt *Packet) {
	// Applications may retain delivered packets; the pointer leaves the
	// delivery chain here.
	pkt.Disown()
	n.ct.DlvPkts.Inc()
	if n.sh.bus.Active() {
		n.emit(KindDeliver, pkt, "")
	}
	var fn AppFunc
	switch {
	case pkt.TCP != nil:
		fn = n.apps[appKey{ProtoTCP, pkt.TCP.DstPort}]
	case pkt.UDP != nil:
		fn = n.apps[appKey{ProtoUDP, pkt.UDP.DstPort}]
	}
	if fn != nil {
		fn(pkt)
		return
	}
	if len(n.rawApps) > 0 {
		for _, raw := range n.rawApps {
			raw(pkt)
		}
		return
	}
	n.drop(pkt, "no-binding") // port unreachable
}

// ---------------------------------------------------------------------------
// substrate.Node
//
// The methods below are the abstract-substrate view of the node: the
// surface internal/planprt (and any other backend-neutral code) talks
// to. Simulation code keeps using the concrete fields and methods
// above; both views share the same state.

// Hostname returns the node's unique name (substrate.Node).
func (n *Node) Hostname() string { return n.Name }

// Address returns the node's address (substrate.Node).
func (n *Node) Address() Addr { return n.Addr }

// Interfaces returns the node's attachment points, substrate-typed
// (substrate.Node). The slice is maintained alongside ifaces so the
// per-packet flood path never converts or allocates.
func (n *Node) Interfaces() []substrate.Iface { return n.subIfaces }

// Route resolves the outgoing interface for dst (substrate.Node). It
// returns an untyped nil when no route exists so backend-neutral
// callers can compare against nil directly.
func (n *Node) Route(dst Addr) substrate.Iface {
	if ifc := n.RouteTo(dst); ifc != nil {
		return ifc
	}
	return nil
}

// SetProcessor installs (or, with nil, removes) the PLAN-P layer
// (substrate.Node).
func (n *Node) SetProcessor(p Processor) { n.Processor = p }

// CurrentProcessor returns the installed PLAN-P layer, or nil
// (substrate.Node).
func (n *Node) CurrentProcessor() Processor { return n.Processor }

// Env returns the node's substrate environment (substrate.Node): a
// shard-local view whose clock, timers, and RNG resolve to the node's
// owning shard at call time. On single-shard simulations it behaves
// exactly like the Simulator itself; on sharded ones it is what keeps
// a node's timers and randomness on the shard that executes the node.
func (n *Node) Env() substrate.Env { return &n.env }

// nodeEnv is the per-node substrate.Env. It delegates through n.sh
// dynamically, so an Env captured before the first run (ASP downloads
// resolve their Env at install time) follows the node to its shard.
type nodeEnv struct{ n *Node }

// Now returns the owning shard's virtual time.
func (e *nodeEnv) Now() time.Duration { return e.n.sh.now }

// After schedules fn on the owning shard, tagged with the node so the
// event migrates with it at seal.
func (e *nodeEnv) After(d time.Duration, fn func()) {
	sh := e.n.sh
	sh.at(sh.now+d, fn, e.n)
}

// Int63n, Float64 and ExpFloat64 draw from the owning shard's RNG
// stream.
func (e *nodeEnv) Int63n(v int64) int64 { return e.n.sh.rng.Int63n(v) }
func (e *nodeEnv) Float64() float64     { return e.n.sh.rng.Float64() }
func (e *nodeEnv) ExpFloat64() float64  { return e.n.sh.rng.ExpFloat64() }

// Events returns the bus this node's publish sites go to: the global
// bus in single-shard runs, the shard-local buffering bus on sharded
// ones (whose events merge into Simulator.Events at each horizon).
// Subscribers that want the merged stream subscribe on the Simulator.
func (e *nodeEnv) Events() *obs.Bus { return e.n.sh.bus }

// Metrics returns the simulation-wide registry (atomic instruments;
// race-free from any shard).
func (e *nodeEnv) Metrics() *obs.Registry { return e.n.sim.reg }

func (n *Node) forward(pkt *Packet, in *Iface) {
	if pkt.IP.TTL <= 1 {
		n.drop(pkt, "ttl")
		return
	}
	// An owned packet's only live reference is this delivery, so the hop
	// copy is elided: decrement TTL in place and send the same packet on.
	// This is the zero-allocation forward path.
	fwd := pkt
	if !pkt.Owned() {
		fwd = pkt.Clone()
	}
	fwd.IP.TTL--
	if n.transmit(fwd, in) {
		n.ct.FwdPkts.Inc()
		if n.sh.bus.Active() {
			n.emit(KindForward, fwd, "")
		}
	} else {
		n.drop(fwd, "no-route")
	}
}

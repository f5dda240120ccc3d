// Nodes: real concurrent hosts and routers. A node owns interfaces, a
// static routing table, local application bindings, and an optional
// PLAN-P processing hook — the same surface as netsim.Node, minus the
// simulation-only machinery (segments, multicast trees, modeled CPU).
package rtnet

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// appKey identifies a local transport binding.
type appKey struct {
	proto uint8
	port  uint16
}

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

// tables is a node's configuration — interfaces, routes, application
// bindings — as one immutable value. A published snapshot is never
// written again, so whatever a reader took from it (a slice from
// Interfaces, an interface from Route) stays as it was.
type tables struct {
	ifaces    []substrate.Iface
	routes    map[substrate.Addr]substrate.Iface
	defaultIf substrate.Iface
	apps      map[appKey]substrate.AppFunc
	rawApps   []substrate.AppFunc
}

// Node is a host or router.
type Node struct {
	net  *Net
	name string
	addr substrate.Addr

	// Forwarding enables router behavior: packets addressed elsewhere
	// are forwarded (TTL decrement) instead of dropped. Set before
	// Start.
	Forwarding bool

	// tables is the current configuration snapshot: per-packet readers
	// load it and never lock; writers copy, modify and publish under mu
	// (see update).
	mu     sync.Mutex
	tables atomic.Pointer[tables]

	// proc boxes the installed PLAN-P layer (nil: none). A box, not an
	// atomic.Value: processors of different concrete types succeed each
	// other over a node's life.
	proc atomic.Pointer[substrate.Processor]

	// down marks a crashed node (see Crash/Restart): all traffic
	// through it is discarded until restart.
	down atomic.Bool

	inbox chan inbound
	ipID  atomic.Uint32
	ct    substrate.NodeCounters
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
	n := &Node{
		net: nw, name: name, addr: addr,
		inbox: make(chan inbound, inboxCap),
		ct:    substrate.NewNodeCounters(nw.reg, name),
	}
	n.tables.Store(&tables{routes: map[substrate.Addr]substrate.Iface{}, apps: map[appKey]substrate.AppFunc{}})
	nw.byAddr[addr] = n
	nw.byName[name] = n
	nw.nodes = append(nw.nodes, n)
	return n
}

// update publishes a modified copy of the tables. mutate receives a
// shallow copy of the current snapshot and must replace, never write
// through, any slice or map it changes (maps.Clone — NewNode makes both
// maps, a nil one would clone to nil — and slices.Clip before append).
// Copy per mutation: topologies are tens of entries.
func (n *Node) update(mutate func(t *tables)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := *n.tables.Load()
	mutate(&t)
	n.tables.Store(&t)
}

// AddRoute installs a host route: traffic to dst leaves via ifc. Safe
// while traffic flows, as is every setter below.
func (n *Node) AddRoute(dst substrate.Addr, ifc substrate.Iface) {
	n.update(func(t *tables) {
		t.routes = maps.Clone(t.routes)
		t.routes[dst] = ifc
	})
}

// SetDefaultRoute installs the default route.
func (n *Node) SetDefaultRoute(ifc substrate.Iface) {
	n.update(func(t *tables) { t.defaultIf = ifc })
}

// addIface appends a link endpoint (called by the link constructors).
func (n *Node) addIface(ifc substrate.Iface) {
	n.update(func(t *tables) { t.ifaces = append(slices.Clip(t.ifaces), ifc) })
}

// bind delivers local traffic for k to fn.
func (n *Node) bind(k appKey, fn substrate.AppFunc) {
	n.update(func(t *tables) {
		t.apps = maps.Clone(t.apps)
		t.apps[k] = fn
	})
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
		n.receive(m.pkt, m.in)
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

// Crash takes the node down (substrate.Crasher): until Restart, every
// packet it receives or originates is discarded (counted as drops with
// Detail "crashed") and the installed PLAN-P processor is removed — the
// state loss of a killed daemon. Routes and bindings survive; they are
// configuration, not downloaded state. Safe while traffic flows.
func (n *Node) Crash() {
	n.down.Store(true)
	n.SetProcessor(nil)
}

// Restart brings a crashed node back up, bare: no processor is
// installed until something (a fleet redeploy) downloads one.
func (n *Node) Restart() { n.down.Store(false) }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down.Load() }

func (n *Node) receive(pkt *substrate.Packet, in substrate.Iface) {
	if n.down.Load() {
		n.drop(pkt, "crashed")
		return
	}
	n.ct.RxPkts.Inc()
	n.ct.RxBytes.Add(int64(pkt.Size()))
	if proc := n.proc.Load(); proc != nil && (*proc).Process(pkt, in) {
		return
	}
	n.defaultProcess(pkt, in)
}

// defaultProcess is standard IP behavior: deliver locally, forward if a
// router, drop otherwise.
func (n *Node) defaultProcess(pkt *substrate.Packet, in substrate.Iface) {
	dst := pkt.IP.Dst
	switch {
	case dst == n.addr || dst == 0xFFFFFFFF:
		n.deliverLocal(pkt)
	case n.Forwarding:
		n.forward(pkt, in)
	default:
		n.drop(pkt, "no-route")
	}
}

func (n *Node) forward(pkt *substrate.Packet, in substrate.Iface) {
	if pkt.IP.TTL <= 1 {
		n.drop(pkt, "ttl")
		return
	}
	// An owned packet's only live reference is this goroutine, so the
	// hop copy is elided exactly as on the simulator.
	fwd := pkt
	if !pkt.Owned() {
		fwd = pkt.Clone()
	}
	fwd.IP.TTL--
	if n.transmit(fwd, in) {
		n.ct.FwdPkts.Inc()
		if n.net.bus.Active() {
			n.emit(obs.KindForward, fwd, "")
		}
	} else {
		n.drop(fwd, "no-route")
	}
}

// transmit routes pkt out any interface except in and reports whether
// it was sent (split horizon: never back out the incoming interface).
func (n *Node) transmit(pkt *substrate.Packet, in substrate.Iface) bool {
	ifc := n.Route(pkt.IP.Dst)
	if ifc == nil || ifc == in {
		return false
	}
	ifc.Send(pkt)
	return true
}

func (n *Node) deliverLocal(pkt *substrate.Packet) {
	// Applications may retain delivered packets; the pointer leaves the
	// delivery chain here.
	pkt.Disown()
	n.ct.DlvPkts.Inc()
	if n.net.bus.Active() {
		n.emit(obs.KindDeliver, pkt, "")
	}
	t := n.tables.Load()
	var fn substrate.AppFunc
	switch {
	case pkt.TCP != nil:
		fn = t.apps[appKey{substrate.ProtoTCP, pkt.TCP.DstPort}]
	case pkt.UDP != nil:
		fn = t.apps[appKey{substrate.ProtoUDP, pkt.UDP.DstPort}]
	}
	if fn != nil {
		fn(pkt)
		return
	}
	if len(t.rawApps) > 0 {
		for _, r := range t.rawApps {
			r(pkt)
		}
		return
	}
	n.drop(pkt, "no-binding")
}

func (n *Node) drop(pkt *substrate.Packet, reason string) {
	n.ct.DropPkts.Inc()
	if n.net.bus.Active() {
		n.emit(obs.KindDrop, pkt, reason)
	}
}

func (n *Node) emit(kind obs.Kind, pkt *substrate.Packet, detail string) {
	n.net.bus.Publish(substrate.PacketEvent(kind, n.net.Now(), n.name, pkt, detail))
}

// BindRaw receives every packet delivered locally regardless of port
// (after specific bindings).
func (n *Node) BindRaw(fn substrate.AppFunc) {
	n.update(func(t *tables) { t.rawApps = append(slices.Clip(t.rawApps), fn) })
}

// ---------------------------------------------------------------------------
// substrate.Node

// Hostname returns the node's unique name (substrate.Node).
func (n *Node) Hostname() string { return n.name }

// Address returns the node's address (substrate.Node).
func (n *Node) Address() substrate.Addr { return n.addr }

// Interfaces returns the node's attachment points (substrate.Node).
// The returned slice must not be mutated; it is stable once the
// topology is built.
func (n *Node) Interfaces() []substrate.Iface { return n.tables.Load().ifaces }

// Route resolves the outgoing interface for dst, or nil (substrate.Node).
func (n *Node) Route(dst substrate.Addr) substrate.Iface {
	t := n.tables.Load()
	if ifc, ok := t.routes[dst]; ok {
		return ifc
	}
	return t.defaultIf
}

// Send originates pkt from this node (substrate.Node): local
// destinations deliver directly, everything else routes out an
// interface. Safe to call from any goroutine — the packet crosses onto
// the destination node's goroutine at the link; only local delivery of
// a self-addressed packet runs on the caller's goroutine.
func (n *Node) Send(pkt *substrate.Packet) {
	// A crashed node originates nothing; application timers that fire
	// while it is down lose their packets.
	if n.down.Load() {
		n.drop(pkt, "crashed")
		return
	}
	if pkt.IP.ID == 0 {
		pkt.IP.ID = n.NextIPID()
	}
	n.ct.TxPkts.Inc()
	n.ct.TxBytes.Add(int64(pkt.Size()))
	if pkt.IP.Dst == n.addr {
		n.deliverLocal(pkt)
		return
	}
	if !n.transmit(pkt, nil) {
		n.drop(pkt, "no-route")
	}
}

// TransmitFrom routes pkt out of any interface except in, reporting
// whether it was sent (substrate.Node). This is the PLAN-P layer's
// OnRemote transmission path: no TTL handling, the program has already
// decided the packet's fate.
func (n *Node) TransmitFrom(pkt *substrate.Packet, in substrate.Iface) bool {
	return n.transmit(pkt, in)
}

// DeliverLocal passes pkt up to local applications (substrate.Node);
// the PLAN-P deliver primitive lands here.
func (n *Node) DeliverLocal(pkt *substrate.Packet) { n.deliverLocal(pkt) }

// BindUDP delivers local UDP traffic for port to fn (substrate.Node).
// fn runs on the node's goroutine.
func (n *Node) BindUDP(port uint16, fn substrate.AppFunc) {
	n.bind(appKey{substrate.ProtoUDP, port}, fn)
}

// BindTCP delivers local TCP traffic for port to fn (substrate.Node).
func (n *Node) BindTCP(port uint16, fn substrate.AppFunc) {
	n.bind(appKey{substrate.ProtoTCP, port}, fn)
}

// NextIPID returns a fresh IP identification value (substrate.Node).
func (n *Node) NextIPID() uint32 { return n.ipID.Add(1) }

// SetProcessor installs (or, with nil, removes) the PLAN-P layer
// (substrate.Node). Safe while traffic flows: the run loop loads the
// processor per packet.
func (n *Node) SetProcessor(p substrate.Processor) {
	if p == nil {
		n.proc.Store(nil)
		return
	}
	n.proc.Store(&p)
}

// CurrentProcessor returns the installed PLAN-P layer, or nil
// (substrate.Node).
func (n *Node) CurrentProcessor() substrate.Processor {
	if p := n.proc.Load(); p != nil {
		return *p
	}
	return nil
}

// Env returns the owning network (substrate.Node).
func (n *Node) Env() substrate.Env { return n.net }

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

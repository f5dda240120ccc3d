// The IP layer: what sits between a backend's media and the PLAN-P
// layer of figure 1, written once for every backend. A Stack holds a
// node's tables (interfaces, host and default routes, multicast routes
// and groups, bindings, taps), its processor hook and crash flag, and
// its counters, and it decides every packet's fate after the backend has
// queued it or charged its CPU: count, taps, processor, then standard
// IP — deliver locally, forward if a router, drop otherwise. netsim and
// rtnet embed a Stack in their Node and keep only what is theirs: the
// event loop and modeled CPU, or the inbox and its goroutine.
//
// Configuration is read on every packet and written at topology build,
// on a download or when chaos strikes, from any goroutine. Readers
// never lock: a read is one atomic pointer load of the published
// tables. Writers change the writers' copy in place under a mutex and
// withdraw the published pointer, so a build of n entries costs n map
// writes, not n copies; the first read after a write publishes the
// writers' copy, and the first write after that copies it before
// changing anything. A published snapshot is therefore never written,
// and whatever a reader took from it (a slice from Interfaces, an
// interface from Route) stays as it was. A packet may see two
// successive snapshots, one in Route and the next in DeliverLocal,
// exactly as it could between two takes of a read lock.
package substrate

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"planp.dev/planp/internal/obs"
)

// appKey identifies a local transport binding.
type appKey struct {
	proto uint8
	port  uint16
}

// tables is a node's configuration. Maps are made on first write.
type tables struct {
	ifaces    []Iface
	routes    map[Addr]Iface   // host routes
	defaultIf Iface            // default route
	mroutes   map[Addr][]Iface // multicast forwarding: group -> out interfaces
	joined    map[Addr]bool    // locally joined multicast groups
	apps      map[appKey]AppFunc
	rawApps   []AppFunc // every locally delivered packet no port binding takes
	taps      []AppFunc // every packet the node receives from the network
}

// clone returns a copy sharing no map or backing array with t.
func (t *tables) clone() *tables {
	c := *t
	c.ifaces = slices.Clone(t.ifaces)
	c.routes = maps.Clone(t.routes)
	c.mroutes = maps.Clone(t.mroutes)
	for g, outs := range c.mroutes {
		c.mroutes[g] = slices.Clone(outs)
	}
	c.joined = maps.Clone(t.joined)
	c.apps = maps.Clone(t.apps)
	c.rawApps = slices.Clone(t.rawApps)
	c.taps = slices.Clone(t.taps)
	return &c
}

// put sets (*m)[k] = v, making the map on first use.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = map[K]V{}
	}
	(*m)[k] = v
}

// Stack is one node's IP layer. Embed it and call Init before use.
type Stack struct {
	// Forwarding enables router behavior: packets addressed elsewhere
	// are forwarded (TTL decrement) instead of dropped. Set it while
	// building the topology.
	Forwarding bool

	name string
	addr Addr
	env  Env
	ct   NodeCounters

	mu     sync.Mutex
	draft  *tables // the writers' tables, under mu
	shared bool    // draft is the published snapshot: copy before writing
	pub    atomic.Pointer[tables]

	// proc boxes the installed PLAN-P layer (nil: none). A box, not an
	// atomic.Value: processors of different concrete types succeed each
	// other over a node's life.
	proc atomic.Pointer[Processor]
	// down marks a crashed node (see Crash/Restart).
	down atomic.Bool
	ipID atomic.Uint32
}

// Init makes s the stack of node name at addr, living in env: its
// counters are registered in env's registry and its events go to env's
// bus, stamped with env's clock.
func (s *Stack) Init(env Env, name string, addr Addr) {
	s.env, s.name, s.addr = env, name, addr
	s.ct = NewNodeCounters(env.Metrics(), name)
	s.draft = &tables{}
}

// Counters returns the node's traffic counters.
func (s *Stack) Counters() NodeCounters { return s.ct }

// load returns the published tables, publishing the writers' copy if a
// write withdrew them.
func (s *Stack) load() *tables {
	if t := s.pub.Load(); t != nil {
		return t
	}
	return s.publish()
}

func (s *Stack) publish() *tables {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.shared { // another reader may have published it meanwhile
		s.draft.ifaces = slices.Clip(s.draft.ifaces) // an append by a reader reallocates
		s.shared = true
		s.pub.Store(s.draft)
	}
	return s.draft
}

// write applies fn to the writers' tables and withdraws the published
// ones. Safe while traffic flows, as is every setter below.
func (s *Stack) write(fn func(t *tables)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shared {
		s.draft, s.shared = s.draft.clone(), false
	}
	fn(s.draft)
	s.pub.Store(nil)
}

// AddIface appends an attachment point (called by link constructors).
func (s *Stack) AddIface(ifc Iface) {
	s.write(func(t *tables) { t.ifaces = append(t.ifaces, ifc) })
}

// AddRoute installs a host route: traffic to dst leaves via ifc.
func (s *Stack) AddRoute(dst Addr, ifc Iface) {
	s.write(func(t *tables) { put(&t.routes, dst, ifc) })
}

// SetDefaultRoute installs (or, with nil, removes) the default route.
func (s *Stack) SetDefaultRoute(ifc Iface) {
	s.write(func(t *tables) { t.defaultIf = ifc })
}

// AddMulticastRoute makes the node forward group traffic out ifc
// (routers on the multicast tree).
func (s *Stack) AddMulticastRoute(group Addr, ifc Iface) {
	s.write(func(t *tables) { put(&t.mroutes, group, append(t.mroutes[group], ifc)) })
}

// JoinGroup subscribes the node to a multicast group for local delivery.
func (s *Stack) JoinGroup(group Addr) {
	s.write(func(t *tables) { put(&t.joined, group, true) })
}

// Joined reports whether the node has joined group.
func (s *Stack) Joined(group Addr) bool { return s.load().joined[group] }

// Accepts is the NIC filter of a segment attachment, promiscuous or
// not: a promiscuous attachment or a forwarding node takes every frame;
// a host takes frames addressed to it, multicast for groups it joined,
// and broadcast.
func (s *Stack) Accepts(pkt *Packet, promisc bool) bool {
	if promisc || s.Forwarding {
		return true
	}
	switch dst := pkt.IP.Dst; {
	case dst == s.addr, dst == 0xFFFFFFFF:
		return true
	case dst.IsMulticast():
		return s.Joined(dst)
	}
	return false
}

// BindUDP delivers local UDP traffic for port to fn.
func (s *Stack) BindUDP(port uint16, fn AppFunc) {
	s.write(func(t *tables) { put(&t.apps, appKey{ProtoUDP, port}, fn) })
}

// BindTCP delivers local TCP traffic for port to fn.
func (s *Stack) BindTCP(port uint16, fn AppFunc) {
	s.write(func(t *tables) { put(&t.apps, appKey{ProtoTCP, port}, fn) })
}

// BindRaw receives every packet delivered locally that no port binding
// takes.
func (s *Stack) BindRaw(fn AppFunc) {
	s.write(func(t *tables) { t.rawApps = append(t.rawApps, fn) })
}

// Tap observes every packet the node receives from the network,
// including transit traffic (monitoring tools; PLAN-P programs install
// a Processor instead).
func (s *Stack) Tap(fn AppFunc) {
	s.write(func(t *tables) { t.taps = append(t.taps, fn) })
}

// Hostname returns the node's unique name (Node).
func (s *Stack) Hostname() string { return s.name }

// Address returns the node's address (Node).
func (s *Stack) Address() Addr { return s.addr }

// Env returns the environment the node lives in (Node).
func (s *Stack) Env() Env { return s.env }

// Interfaces returns the node's attachment points.
func (s *Stack) Interfaces() []Iface { return s.load().ifaces }

// Route resolves the outgoing interface for dst, or nil (Node). For a
// multicast group it is the first multicast route, the interface whose
// load the adaptation primitives measure.
func (s *Stack) Route(dst Addr) Iface {
	t := s.load()
	if dst.IsMulticast() {
		if outs := t.mroutes[dst]; len(outs) > 0 {
			return outs[0]
		}
	} else if ifc, ok := t.routes[dst]; ok {
		return ifc
	}
	return t.defaultIf
}

// SetProcessor installs (or, with nil, removes) the PLAN-P layer
// (Node). Safe while traffic flows: Receive loads it per packet.
func (s *Stack) SetProcessor(p Processor) {
	if p == nil {
		s.proc.Store(nil)
		return
	}
	s.proc.Store(&p)
}

// CurrentProcessor returns the installed PLAN-P layer, or nil (Node).
func (s *Stack) CurrentProcessor() Processor {
	if p := s.proc.Load(); p != nil {
		return *p
	}
	return nil
}

// Crash takes the node down (Crasher): until Restart, every packet it
// receives or originates is discarded (counted as drops with Detail
// "crashed") and the installed PLAN-P processor is removed — the state
// loss of a killed daemon. Routes, bindings and multicast state
// survive; they are configuration, not downloaded state.
func (s *Stack) Crash() {
	s.down.Store(true)
	s.SetProcessor(nil)
}

// Restart brings a crashed node back up, bare: no processor is
// installed until something (a fleet redeploy) downloads one.
func (s *Stack) Restart() { s.down.Store(false) }

// Down reports whether the node is crashed.
func (s *Stack) Down() bool { return s.down.Load() }

// Send originates pkt from this node (Node): local destinations deliver
// directly, everything else routes out an interface. Locally originated
// packets do not pass through the local PLAN-P layer (the layer
// processes network traffic, figure 1).
func (s *Stack) Send(pkt *Packet) {
	// A crashed node originates nothing; application timers that fire
	// while it is down lose their packets.
	if s.down.Load() {
		s.drop(pkt, "crashed")
		return
	}
	if pkt.IP.ID == 0 {
		pkt.IP.ID = s.ipID.Add(1)
	}
	s.ct.TxPkts.Inc()
	s.ct.TxBytes.Add(int64(pkt.Size()))
	if pkt.IP.Dst == s.addr {
		s.DeliverLocal(pkt)
		return
	}
	if s.transmit(pkt, nil) == 0 {
		s.drop(pkt, "no-route")
	}
}

// Receive processes pkt arriving on in (nil: injected locally) once the
// backend has queued it or charged its CPU: count it, show it to the
// taps, offer it to the processor, and give it standard IP processing
// unless the processor took it.
func (s *Stack) Receive(pkt *Packet, in Iface) {
	if s.down.Load() {
		s.drop(pkt, "crashed")
		return
	}
	s.ct.RxPkts.Inc()
	s.ct.RxBytes.Add(int64(pkt.Size()))
	if taps := s.load().taps; len(taps) > 0 {
		// A tap may retain the packet, so it can no longer be reused in
		// place by a downstream forward.
		pkt.Disown()
		for _, tap := range taps {
			tap(pkt)
		}
	}
	if p := s.proc.Load(); p != nil && (*p).Process(pkt, in) {
		return
	}
	s.Standard(pkt, in)
}

// Standard is standard IP behavior (Node): deliver locally, forward if
// a router, drop otherwise. Broadcast is delivered and never forwarded.
func (s *Stack) Standard(pkt *Packet, in Iface) {
	dst := pkt.IP.Dst
	switch {
	case dst == s.addr || dst == 0xFFFFFFFF:
		s.DeliverLocal(pkt)
	case dst.IsMulticast():
		if s.Joined(dst) {
			s.DeliverLocal(pkt)
		}
		if s.Forwarding {
			s.forward(pkt, in)
		}
	case s.Forwarding:
		s.forward(pkt, in)
	default:
		s.drop(pkt, "no-route")
	}
}

// forward relays a transit packet: in place when this delivery holds
// its only live reference (the zero-allocation forward path), else in
// a copy.
func (s *Stack) forward(pkt *Packet, in Iface) {
	if !pkt.Owned() {
		pkt = pkt.Clone()
	}
	if s.Relay(pkt, in) {
		s.ct.FwdPkts.Inc()
		s.emit(obs.KindForward, pkt, "")
	}
}

// Relay sends pkt on from this node (Node), the one rule for a router's
// forward and every processor's re-send: delivered locally if addressed
// to this node, otherwise hop by its route. It reports whether the
// packet was delivered or sent; counting a forward is the caller's.
func (s *Stack) Relay(pkt *Packet, in Iface) bool {
	if pkt.IP.Dst == s.addr {
		s.DeliverLocal(pkt)
		return true
	}
	return s.hop(pkt, in, false) > 0
}

// Flood sends one copy of pkt out of every interface but in, the
// OnNeighbor fan-out, by hop, and returns the number of copies (Node).
func (s *Stack) Flood(pkt *Packet, in Iface) int { return s.hop(pkt, in, true) }

// hop is IP's rule for a packet leaving this node: one whose TTL would
// expire is a "ttl" drop; any other loses one TTL, gets an IP ID if it
// has none, and leaves by its route (flooding: by every interface), but
// never back out in (split horizon; nil excludes nothing). It returns
// the copies sent and counts a packet that sent none as a "no-route"
// drop.
func (s *Stack) hop(pkt *Packet, in Iface, flood bool) int {
	if pkt.IP.TTL <= 1 {
		s.drop(pkt, "ttl")
		return 0
	}
	pkt.IP.TTL--
	if pkt.IP.ID == 0 {
		pkt.IP.ID = s.ipID.Add(1)
	}
	var n int
	if flood {
		n = sendEach(pkt, s.load().ifaces, in)
	} else {
		n = s.transmit(pkt, in)
	}
	if n == 0 {
		s.drop(pkt, "no-route")
	}
	return n
}

// transmit routes pkt out of every interface it is due on except in and
// returns how many copies left.
func (s *Stack) transmit(pkt *Packet, in Iface) int {
	dst := pkt.IP.Dst
	if !dst.IsMulticast() {
		ifc := s.Route(dst)
		if ifc == nil || ifc == in {
			return 0
		}
		ifc.Send(pkt)
		return 1
	}
	t := s.load()
	n := sendEach(pkt, t.mroutes[dst], in)
	// Hosts originating multicast without multicast routes use the
	// default interface.
	if n == 0 && in == nil && t.defaultIf != nil {
		t.defaultIf.Send(pkt)
		n = 1
	}
	return n
}

// sendEach sends pkt out of every interface in outs but in and returns
// the count. The copies share one packet pointer across the outgoing
// media, so with more than one nobody downstream may reuse it in place.
func sendEach(pkt *Packet, outs []Iface, in Iface) int {
	n := 0
	for _, ifc := range outs {
		if ifc != in {
			n++
		}
	}
	if n > 1 {
		pkt.Disown()
	}
	for _, ifc := range outs {
		if ifc != in {
			ifc.Send(pkt)
		}
	}
	return n
}

// DeliverLocal passes pkt up to local applications (Node); the PLAN-P
// deliver primitive lands here as well as default processing.
func (s *Stack) DeliverLocal(pkt *Packet) {
	// Applications may retain delivered packets; the pointer leaves the
	// delivery chain here.
	pkt.Disown()
	s.ct.DlvPkts.Inc()
	s.emit(obs.KindDeliver, pkt, "")
	t := s.load()
	var fn AppFunc
	switch {
	case pkt.TCP != nil:
		fn = t.apps[appKey{ProtoTCP, pkt.TCP.DstPort}]
	case pkt.UDP != nil:
		fn = t.apps[appKey{ProtoUDP, pkt.UDP.DstPort}]
	}
	if fn != nil {
		fn(pkt)
		return
	}
	if len(t.rawApps) > 0 {
		for _, raw := range t.rawApps {
			raw(pkt)
		}
		return
	}
	s.drop(pkt, "no-binding") // port unreachable
}

// drop counts a dropped packet and publishes the drop with its reason
// (a static string: "ttl", "no-route", "no-binding", "crashed").
func (s *Stack) drop(pkt *Packet, reason string) {
	s.ct.DropPkts.Inc()
	s.emit(obs.KindDrop, pkt, reason)
}

// emit publishes one packet event for this node when anyone listens.
func (s *Stack) emit(kind obs.Kind, pkt *Packet, detail string) {
	if bus := s.env.Events(); bus.Active() {
		bus.Publish(PacketEvent(kind, s.env.Now(), s.name, pkt, detail))
	}
}

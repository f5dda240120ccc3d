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

// Interfaces returns the node's attachment points (Node).
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

// NextIPID returns a fresh IP identification value (Node).
func (s *Stack) NextIPID() uint32 { return s.ipID.Add(1) }

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
		pkt.IP.ID = s.NextIPID()
	}
	s.ct.TxPkts.Inc()
	s.ct.TxBytes.Add(int64(pkt.Size()))
	if pkt.IP.Dst == s.addr {
		s.DeliverLocal(pkt)
		return
	}
	if !s.TransmitFrom(pkt, nil) {
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
	s.defaultProcess(pkt, in)
}

// defaultProcess is standard IP behavior: deliver locally, forward if a
// router, drop otherwise. Broadcast is delivered and never forwarded.
func (s *Stack) defaultProcess(pkt *Packet, in Iface) {
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

func (s *Stack) forward(pkt *Packet, in Iface) {
	if pkt.IP.TTL <= 1 {
		s.drop(pkt, "ttl")
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
	if s.TransmitFrom(fwd, in) {
		s.ct.FwdPkts.Inc()
		s.emit(obs.KindForward, fwd, "")
	} else {
		s.drop(fwd, "no-route")
	}
}

// TransmitFrom routes pkt out of every interface it is due on except in
// (split horizon: never back out the incoming interface) and reports
// whether it was sent anywhere (Node). It is also the PLAN-P layer's
// OnRemote transmission path: the program has already decided the
// packet's fate, so no TTL handling happens here.
func (s *Stack) TransmitFrom(pkt *Packet, in Iface) bool {
	dst := pkt.IP.Dst
	if !dst.IsMulticast() {
		ifc := s.Route(dst)
		if ifc == nil || ifc == in {
			return false
		}
		ifc.Send(pkt)
		return true
	}
	t := s.load()
	outs := t.mroutes[dst]
	// Multicast fan-out shares one packet pointer across the outgoing
	// media, so with more than one destination nobody downstream may
	// reuse it in place.
	if pkt.Owned() {
		n := 0
		for _, ifc := range outs {
			if ifc != in {
				n++
			}
		}
		if n > 1 {
			pkt.Disown()
		}
	}
	sent := false
	for _, ifc := range outs {
		if ifc != in {
			ifc.Send(pkt)
			sent = true
		}
	}
	// Hosts originating multicast without multicast routes use the
	// default interface.
	if !sent && in == nil && t.defaultIf != nil {
		t.defaultIf.Send(pkt)
		sent = true
	}
	return sent
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

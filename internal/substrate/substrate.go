// Package substrate defines the execution substrate the PLAN-P/ASP
// layer runs on: the small interface set separating the language
// runtime (internal/planprt) from whatever actually moves packets
// underneath it.
//
// The paper's runtime ran on real SUN hosts and routers; this
// reproduction began with a discrete-event simulator standing in for
// that network. The substrate split makes the simulator one
// implementation among several rather than a hard dependency:
//
//   - internal/netsim — the deterministic discrete-event simulator
//     (virtual clock, single-threaded, reproducible from a seed). The
//     reference backend: every paper experiment replays on it
//     byte-identically.
//   - internal/rtnet — the real-time concurrent backend (wall clock,
//     goroutine per node, in-process channel links with optional UDP
//     sockets on loopback). The backend that faces real traffic;
//     cmd/planpd downloads ASPs onto its live nodes.
//
// The interfaces are deliberately narrow: exactly what the runtime's
// primitive set needs (host identity, routing, transmission, local
// delivery, link-load measurement, a clock, timers, and seeded
// randomness) plus the packet-processing hook a downloaded protocol
// installs into. Backends with richer APIs (the simulator's event
// budgets, rtnet's socket links) keep them on their concrete types.
//
// # Determinism contract
//
// A backend is either deterministic or concurrent, and says which:
//
//   - netsim promises bit-identical runs for a fixed seed and workload.
//     Env.Now is virtual time; Env.After schedules on the simulation
//     event queue; the Env draws come from the simulation RNG. On sharded
//     simulations (netsim.WithShards) the Env a node hands out is
//     shard-local: its clock, timers, and RNG stream belong to the
//     event loop executing the node, which is what keeps multi-shard
//     runs deterministic. Code holding an Env must treat it as scoped
//     to the node it came from, never as a global clock.
//   - rtnet promises race-cleanliness, not reproducibility. Env.Now is
//     wall-clock time since the net started; Env.After uses real
//     timers; the Env draws come from a mutex-guarded RNG.
//
// Code meant to run on both (the runtime, ASP programs, the apps,
// conformance tests) must therefore never compare exact timestamps
// across runs, and must guard state a binding and a timer both touch.
package substrate

import (
	"time"

	"planp.dev/planp/internal/obs"
)

// Processor is the PLAN-P layer hook. Process sees every packet the
// node receives from the network, before standard IP processing.
// Returning true means the program handled the packet (forwarded,
// delivered, or dropped it); false falls through to the backend's
// standard behavior.
//
// A Processor must not mutate pkt (build a Clone/CloneMut to rewrite)
// and must not retain pkt beyond the call unless it returns true: on
// false the substrate may reuse the packet in place for the next
// forwarding hop. Retaining the payload slice is always safe — payload
// bytes are immutable once transmitted. A processor that returns true
// may hold pkt and decide its fate later (the ASP runtime holds a
// packet that arrives while one of its invocations runs); handing it
// to Node.Standard then gives it the processing false would have.
//
// On concurrent backends Process is invoked from the owning node's
// goroutine only, so a processor needs no internal locking unless it
// shares state across nodes.
type Processor interface {
	Process(pkt *Packet, in Iface) bool
}

// AppFunc receives packets delivered to a local application binding.
type AppFunc func(pkt *Packet)

// Iface is one attachment point of a node to a transmission medium.
// The runtime uses interfaces as opaque identities (split-horizon
// comparisons), transmission ports, and load probes.
type Iface interface {
	// Send transmits pkt out this interface.
	Send(pkt *Packet)
	// Load returns the utilization percentage (0-100) of this
	// interface's outgoing direction over the backend's measurement
	// window.
	Load() int64
	// Bandwidth returns the attached medium's capacity in bits/s.
	Bandwidth() int64
}

// Node is the substrate-facing view of one host or router: everything
// the ASP runtime needs to install itself and to implement the
// OnRemote/OnNeighbor/deliver primitives. *netsim.Node and *rtnet.Node
// both satisfy it.
type Node interface {
	// Hostname returns the node's unique name (metric and event keys
	// are derived from it: "node.<name>.*", "asp.<name>.*").
	Hostname() string
	// Address returns the node's address.
	Address() Addr
	// Route resolves the outgoing interface for dst (nil if
	// unroutable).
	Route(dst Addr) Iface
	// Send originates pkt from this node: local destinations deliver
	// directly, everything else routes out an interface.
	Send(pkt *Packet)
	// Relay sends on a packet a processor has decided the fate of
	// (OnRemote): delivered locally if addressed to this node, else
	// TTL-checked and decremented, given an IP ID if it has none, and
	// routed out of any interface but in (nil: no exclusion). It reports
	// whether the packet was delivered or sent; one that cannot leave
	// is a counted node drop, "ttl" or "no-route".
	Relay(pkt *Packet, in Iface) bool
	// Flood sends one copy of pkt out of every interface but in
	// (OnNeighbor) by the same rule and returns the number of copies.
	Flood(pkt *Packet, in Iface) int
	// DeliverLocal passes pkt up to local application bindings (the
	// deliver primitive).
	DeliverLocal(pkt *Packet)
	// Standard gives pkt, received on in, the node's standard IP
	// processing: what follows a Process that returns false.
	Standard(pkt *Packet, in Iface)
	// BindUDP delivers local UDP traffic for port to fn.
	BindUDP(port uint16, fn AppFunc)
	// BindTCP delivers local TCP traffic for port to fn.
	BindTCP(port uint16, fn AppFunc)
	// BindRaw delivers to fn every local packet no port binding takes.
	BindRaw(fn AppFunc)
	// SetProcessor installs (or, with nil, removes) the PLAN-P layer.
	SetProcessor(p Processor)
	// CurrentProcessor returns the installed PLAN-P layer, or nil.
	CurrentProcessor() Processor
	// Env returns the execution environment the node lives in.
	Env() Env
}

// Env is the substrate execution environment shared by a network of
// nodes: the clock, timers, seeded randomness, and the observability
// substrate. *netsim.Simulator and *rtnet.Net both satisfy it.
type Env interface {
	// Now returns the current substrate time: virtual time on the
	// simulator, wall-clock time since start on real-time backends.
	Now() time.Duration
	// After schedules fn to run d after the current time. On the
	// simulator fn runs on the event loop; on real-time backends it
	// runs on its own goroutine and must synchronize like any other
	// concurrent code.
	After(d time.Duration, fn func())
	// Int63n returns a pseudo-random integer in [0, n) from the
	// environment's seeded stream (the rand primitive). n must be > 0.
	Int63n(n int64) int64
	// Float64 returns a pseudo-random number in [0, 1), ExpFloat64 an
	// exponentially distributed one with mean 1, from the same stream.
	Float64() float64
	ExpFloat64() float64
	// Events returns the environment's event bus. Both backends emit
	// the same typed events (obs.Kind*) at the same decision points.
	Events() *obs.Bus
	// Metrics returns the environment's metrics registry — the single
	// source node and runtime statistics are read from.
	Metrics() *obs.Registry
}

// NodeCounters are a node's traffic counters in its Env's registry,
// under "node.<name>.*" on every backend. They are resolved once at
// construction so the packet path never does a name lookup.
type NodeCounters struct {
	RxPkts, RxBytes *obs.Counter
	TxPkts, TxBytes *obs.Counter
	FwdPkts         *obs.Counter
	DlvPkts         *obs.Counter
	DropPkts        *obs.Counter // TTL expiry, no route, no binding, crashed
}

// NewNodeCounters registers node name's counters in reg.
func NewNodeCounters(reg *obs.Registry, name string) NodeCounters {
	pre := "node." + name + "."
	return NodeCounters{
		RxPkts:   reg.Counter(pre + "received_pkts"),
		RxBytes:  reg.Counter(pre + "received_bytes"),
		TxPkts:   reg.Counter(pre + "sent_pkts"),
		TxBytes:  reg.Counter(pre + "sent_bytes"),
		FwdPkts:  reg.Counter(pre + "forwarded_pkts"),
		DlvPkts:  reg.Counter(pre + "delivered_pkts"),
		DropPkts: reg.Counter(pre + "dropped_pkts"),
	}
}

// LinkCounters are one link direction's losses: what its medium lost
// (every wire drop reason but "fault", see obs.KindDrop) and what its
// fault layer dropped, counted apart so that a robustness experiment
// can tell a full queue from a cut link. rtnet registers them under
// "link.<local>:<peer>.*"; netsim keeps them unnamed in its wires.
type LinkCounters struct {
	DropPkts      *obs.Counter
	FaultDropPkts *obs.Counter
}

// NewLinkCounters registers the counters of the link direction label
// ("<local>:<peer>") in reg.
func NewLinkCounters(reg *obs.Registry, label string) LinkCounters {
	pre := "link." + label + "."
	return LinkCounters{
		DropPkts:      reg.Counter(pre + "dropped_pkts"),
		FaultDropPkts: reg.Counter(pre + "fault_dropped_pkts"),
	}
}

// PacketEvent is the event every packet publish site sends: kind, at
// time at, on node (a node or link name), carrying pkt's addresses and
// size. A nil pkt (a datagram dropped before it parsed) leaves those
// fields zero. Callers build it only when the bus is Active.
func PacketEvent(kind obs.Kind, at time.Duration, node string, pkt *Packet, detail string) obs.Event {
	ev := obs.Event{Kind: kind, At: at, Node: node, Detail: detail}
	if pkt != nil {
		ev.Src, ev.Dst, ev.Size = uint32(pkt.IP.Src), uint32(pkt.IP.Dst), pkt.Size()
	}
	return ev
}

// Nodes: hosts and routers. A node's IP layer — tables, processor hook,
// crash state, send/forward/deliver/drop — is substrate.Stack, the same
// code rtnet nodes run; what is left here is the simulation: the owning
// shard and its Env, and the modeled per-packet CPU.
package netsim

import (
	"fmt"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

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
	substrate.Stack

	Name string
	Addr Addr
	sim  *Simulator
	sh   *shard // owning shard (shard 0 until a sharded run seals)
	ix   int    // creation index (island partitioning)
	env  nodeEnv

	// PerPacketCPU, when nonzero, serializes received-packet processing
	// through the node's CPU at this cost per packet. This is how the
	// HTTP experiment models the gateway as a contention point (§3.2):
	// throughput caps at 1/PerPacketCPU packets per second.
	PerPacketCPU time.Duration
	cpuBusyUntil time.Duration
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
	n := &Node{Name: name, Addr: addr, sim: sim, sh: sim.shards[0], ix: len(sim.order)}
	n.env.n = n
	n.Init(&n.env, name, addr)
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
	ct := n.Counters()
	return Stats{
		ReceivedPkts:  ct.RxPkts.Value(),
		ReceivedBytes: ct.RxBytes.Value(),
		SentPkts:      ct.TxPkts.Value(),
		SentBytes:     ct.TxBytes.Value(),
		ForwardedPkts: ct.FwdPkts.Value(),
		DeliveredPkts: ct.DlvPkts.Value(),
		DroppedPkts:   ct.DropPkts.Value(),
	}
}

// Crash takes the node down (substrate.Stack.Crash) and idles its CPU.
func (n *Node) Crash() {
	n.Stack.Crash()
	n.cpuBusyUntil = 0
}

// Receive is called by media when a packet arrives on ifc. When the
// node models CPU cost, processing is serialized behind earlier packets.
func (n *Node) Receive(pkt *Packet, in *Iface) {
	if n.PerPacketCPU > 0 && !n.Down() {
		start := max(n.sh.now, n.cpuBusyUntil)
		n.cpuBusyUntil = start + n.PerPacketCPU
		n.sh.atReceiveNow(n.cpuBusyUntil, n, pkt, in)
		return
	}
	n.receiveNow(pkt, in)
}

// receiveNow is the post-CPU half: the IP layer. A crash can land
// between the CPU-serialization schedule and this half; the Stack drops
// packets caught in that window. A nil in stays an untyped nil.
func (n *Node) receiveNow(pkt *Packet, in *Iface) {
	var ifc substrate.Iface
	if in != nil {
		ifc = in
	}
	n.Stack.Receive(pkt, ifc)
}

// nodeEnv is the per-node substrate.Env (Node.Env): a shard-local view
// whose clock, timers, and RNG resolve to the node's owning shard at
// call time. On single-shard simulations it behaves exactly like the
// Simulator itself; on sharded ones it is what keeps a node's timers and
// randomness on the shard that executes the node. It delegates through
// n.sh dynamically, so an Env captured before the first run (ASP
// downloads resolve their Env at install time) follows the node to its
// shard.
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

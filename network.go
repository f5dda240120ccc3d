// Network construction: a thin façade over the discrete-event simulator
// so examples and downstream users can declare a topology and build it
// without touching internal packages.
package planp

import (
	"io"
	"time"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// Re-exported simulator types. The simulator is deterministic: all
// timing is virtual and all randomness flows from the seed.
type (
	// Node is a host or router in the simulated network.
	Node = netsim.Node
	// Packet is one datagram.
	Packet = substrate.Packet
	// Iface attaches a node to a link or segment.
	Iface = netsim.Iface
	// Link is a duplex point-to-point link.
	Link = netsim.Link
	// Segment is a shared Ethernet broadcast domain.
	Segment = netsim.Segment
	// Addr is an IPv4-style address.
	Addr = substrate.Addr
)

// A network declared as data: the same specs every experiment builds
// its network from, on either backend.
type (
	// Topology names the nodes, the duplex links, the shared segments,
	// the explicit routes and the multicast state of a network.
	Topology = substrate.Topology
	// NodeSpec is one host, or a router when Forwarding is set.
	NodeSpec = substrate.NodeSpec
	// LinkSpec is one duplex point-to-point link.
	LinkSpec = substrate.LinkSpec
	// SegmentSpec is one shared broadcast medium and its members.
	SegmentSpec = substrate.SegmentSpec
	// RouteSpec is one explicit unicast or multicast route.
	RouteSpec = substrate.RouteSpec
	// JoinSpec subscribes a node to a multicast group.
	JoinSpec = substrate.JoinSpec
	// Built is a network Network.Build made: its nodes, links and
	// segments in spec order, and each node's interface toward a
	// neighbour.
	Built = netsim.Built
)

// Packet constructors and address parsing.
var (
	// NewUDP builds a UDP packet.
	NewUDP = substrate.NewUDP
	// NewTCP builds a TCP packet.
	NewTCP = substrate.NewTCP
	// ParseAddr parses a dotted quad.
	ParseAddr = substrate.ParseAddr
	// MustAddr parses a dotted quad or panics.
	MustAddr = substrate.MustAddr
)

// Network owns a simulation: virtual clock, nodes, and media.
type Network struct {
	sim *netsim.Simulator
}

// NetworkOption configures NewNetwork.
type NetworkOption = netsim.Option

// Network options.
var (
	// WithSeed sets the RNG seed all simulation randomness flows from
	// (default 1). Runs with the same seed and workload are identical.
	WithSeed = netsim.WithSeed
	// WithObserver subscribes an observer to the network's event bus
	// before any traffic flows. May be given multiple times; observers
	// fire in option order. With no observers the per-packet publish
	// sites cost nothing.
	WithObserver = netsim.WithObserver
)

// WithTraceWriter attaches a pcap-style text event log writing one line
// per packet event to w: WithObserver of a text log.
func WithTraceWriter(w io.Writer) NetworkOption {
	return WithObserver(obs.NewTextLog(w))
}

// NewNetwork creates an empty network. By default the simulation is
// seeded with 1 and unobserved; see WithSeed, WithObserver, and
// WithTraceWriter.
func NewNetwork(opts ...NetworkOption) *Network {
	return &Network{sim: netsim.New(opts...)}
}

// Build creates t's nodes, then its links, then each segment with its
// members, all in spec order, and routes them by one rule: a node with
// one interface gets a default route out of it; a multi-homed node gets
// a host route to every node it can reach, out of the interface its
// shortest path leaves by; t's explicit routes go on top, a route to
// 0.0.0.0 being a default route. A router thus has no default route
// unless t gives it one, and drops a packet for an address outside t as
// "no-route". On an error the network may hold part of t.
func (n *Network) Build(t *Topology) (*Built, error) { return netsim.Build(n.sim, t) }

// Sim exposes the underlying simulator (scheduling, time, RNG).
func (n *Network) Sim() *netsim.Simulator { return n.sim }

// Metrics returns the network's metrics registry — the single source
// all node and protocol statistics are recorded in ("node.<name>.*",
// "asp.<name>.*", plus any series experiments register).
func (n *Network) Metrics() *Metrics { return n.sim.Metrics() }

// Events returns the network's event bus for subscribing observers
// mid-run (Ring flight recorders, counting sinks, text logs).
func (n *Network) Events() *EventBus { return n.sim.Events() }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sim.Now() }

// At schedules fn at absolute virtual time t.
func (n *Network) At(t time.Duration, fn func()) { n.sim.At(t, fn) }

// After schedules fn after delay d.
func (n *Network) After(d time.Duration, fn func()) { n.sim.After(d, fn) }

// runConfig collects Run options.
type runConfig struct {
	deadline    time.Duration
	hasDeadline bool
	duration    time.Duration
	hasDuration bool
	maxEvents   int
}

// RunOption bounds a Run call.
type RunOption func(*runConfig)

// WithDeadline stops the run once the next event would fire after
// absolute virtual time t, then advances the clock to t.
func WithDeadline(t time.Duration) RunOption {
	return func(c *runConfig) { c.deadline, c.hasDeadline = t, true }
}

// WithDuration is WithDeadline relative to the virtual time when Run is
// called: the run covers the next d of virtual time.
func WithDuration(d time.Duration) RunOption {
	return func(c *runConfig) { c.duration, c.hasDuration = d, true }
}

// WithMaxEvents additionally stops the run after n simulator events — a
// budget guard for workloads that may never drain. When the budget is
// hit the clock is NOT advanced to any deadline, so the run can resume.
func WithMaxEvents(n int) RunOption {
	return func(c *runConfig) { c.maxEvents = n }
}

// Run processes pending simulator events and returns how many ran.
//
// Event-count semantics: the returned int counts SIMULATOR events — one
// per scheduled callback (a packet arrival, a timer, an application
// send), not one per packet. A packet crossing two links contributes at
// least two events. The count is deterministic for a fixed seed and
// workload, which makes it a cheap progress assertion in tests.
//
// With no options, Run drains the queue completely (workloads with
// naturally finite traffic). WithDeadline/WithDuration bound the run in
// virtual time: events at or before the deadline run, then the clock
// advances to exactly the deadline even if the queue drained early.
// WithMaxEvents bounds the run in event count.
func (n *Network) Run(opts ...RunOption) int {
	var cfg runConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.hasDuration {
		// Resolve the relative bound against the clock at Run time, so
		// options can be built ahead of the calls that use them. An
		// explicit WithDeadline wins over WithDuration.
		if !cfg.hasDeadline {
			cfg.deadline, cfg.hasDeadline = n.sim.Now()+cfg.duration, true
		}
	}
	if !cfg.hasDeadline {
		return n.sim.RunMax(cfg.maxEvents)
	}
	return n.sim.RunBounded(cfg.deadline, cfg.maxEvents)
}

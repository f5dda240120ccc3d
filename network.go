// Network construction: a thin façade over the discrete-event simulator
// so examples and downstream users can build topologies without touching
// internal packages.
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
	Packet = netsim.Packet
	// Iface attaches a node to a link or segment.
	Iface = netsim.Iface
	// Link is a duplex point-to-point link.
	Link = netsim.Link
	// Segment is a shared Ethernet broadcast domain.
	Segment = netsim.Segment
	// LinkConfig sets bandwidth, delay, and queue limits.
	LinkConfig = netsim.LinkConfig
	// Addr is an IPv4-style address.
	Addr = netsim.Addr
)

// Packet constructors and address parsing.
var (
	// NewUDP builds a UDP packet.
	NewUDP = netsim.NewUDP
	// NewTCP builds a TCP packet.
	NewTCP = substrate.NewTCP
	// ParseAddr parses a dotted quad.
	ParseAddr = substrate.ParseAddr
	// MustAddr parses a dotted quad or panics.
	MustAddr = netsim.MustAddr
)

// Network owns a simulation: virtual clock, nodes, and media.
type Network struct {
	sim *netsim.Simulator
}

// networkConfig collects NewNetwork options.
type networkConfig struct {
	seed      int64
	shards    int
	observers []Observer
	traceW    io.Writer
}

// NetworkOption configures NewNetwork.
type NetworkOption func(*networkConfig)

// WithSeed sets the RNG seed all simulation randomness flows from
// (default 1). Runs with the same seed and workload are identical.
func WithSeed(seed int64) NetworkOption {
	return func(c *networkConfig) { c.seed = seed }
}

// WithShards lets the simulation run on up to n parallel event loops
// (default 1). The topology is partitioned into islands separated by
// links marked LinkConfig.ShardBoundary; each island group runs its own
// event heap on its own goroutine, and shards synchronize at horizons
// equal to the minimum cross-shard link delay (conservative parallel
// discrete-event simulation).
//
// Determinism contract: output is a function of the seed and workload,
// never of the shard count or goroutine scheduling. Concretely:
//
//   - One shard is the plain single-threaded engine, bit-for-bit.
//   - The effective shard count is capped at the number of islands. A
//     topology that declares no boundary links always runs
//     single-threaded, whatever n says — the engine refuses to cut
//     where it cannot preserve determinism.
//   - Event streams (Events), metrics, and clocks are byte-identical at
//     any shard count provided node code takes time, timers, and
//     randomness from Node.Env() (so they resolve to the executing
//     shard) and no cross-boundary packet arrival shares an exact
//     virtual-time tick with an unrelated event at the same island —
//     stagger phases and boundary delays, as the built-in scenarios do.
//
// See docs/PERFORMANCE.md for the horizon math and when sharding helps.
func WithShards(n int) NetworkOption {
	return func(c *networkConfig) { c.shards = n }
}

// WithObserver subscribes an observer to the network's event bus before
// any traffic flows. May be given multiple times; observers fire in
// subscription order. With no observers the per-packet publish sites
// cost nothing.
func WithObserver(o Observer) NetworkOption {
	return func(c *networkConfig) { c.observers = append(c.observers, o) }
}

// WithTraceWriter attaches a pcap-style text event log writing one line
// per packet event to w (a convenience wrapper over WithObserver).
func WithTraceWriter(w io.Writer) NetworkOption {
	return func(c *networkConfig) { c.traceW = w }
}

// NewNetwork creates an empty network. By default the simulation is
// seeded with 1 and unobserved; see WithSeed, WithObserver, and
// WithTraceWriter.
func NewNetwork(opts ...NetworkOption) *Network {
	cfg := networkConfig{seed: 1, shards: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := &Network{sim: netsim.New(netsim.WithSeed(cfg.seed), netsim.WithShards(cfg.shards))}
	for _, o := range cfg.observers {
		n.sim.Events().Subscribe(o)
	}
	if cfg.traceW != nil {
		n.sim.Events().Subscribe(obs.NewTextLog(cfg.traceW))
	}
	return n
}

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

// NewHost adds a host node.
func (n *Network) NewHost(name, addr string) *Node {
	return netsim.NewNode(n.sim, name, netsim.MustAddr(addr))
}

// NewRouter adds a forwarding node.
func (n *Network) NewRouter(name, addr string) *Node {
	r := netsim.NewNode(n.sim, name, netsim.MustAddr(addr))
	r.Forwarding = true
	return r
}

// Wire connects two nodes with a duplex link and installs default/host
// routes so traffic between them flows without further configuration:
// each endpoint gets a host route to the other; endpoints without a
// default route adopt this link.
func (n *Network) Wire(a, b *Node, cfg LinkConfig) *Link {
	l := netsim.Connect(n.sim, a, b, cfg)
	ifs := l.Ifaces()
	a.AddRoute(b.Addr, ifs[0])
	b.AddRoute(a.Addr, ifs[1])
	if a.RouteTo(0) == nil {
		a.SetDefaultRoute(ifs[0])
	}
	if b.RouteTo(0) == nil {
		b.SetDefaultRoute(ifs[1])
	}
	return l
}

// NewSegment creates a shared broadcast segment.
func (n *Network) NewSegment(name string, cfg LinkConfig) *Segment {
	return netsim.NewSegment(n.sim, name, cfg)
}

// Attach connects a node to a segment, defaulting its route onto the
// segment if it has none.
func (n *Network) Attach(seg *Segment, node *Node) *Iface {
	ifc := seg.Attach(node)
	if node.RouteTo(0) == nil {
		node.SetDefaultRoute(ifc)
	}
	return ifc
}

// Package rtnet is the real-time execution substrate: the same
// substrate.Node/Iface/Env surface as the deterministic simulator
// (internal/netsim), but backed by goroutines, wall-clock time, and
// real in-process (or loopback-UDP) packet transport. An ASP verified
// and compiled once runs unchanged on either backend — this package is
// what makes the "download onto a live node" half of the paper's story
// (§4, the Solaris kernel module) concrete in this reproduction.
//
// Concurrency model: every node runs a single goroutine that drains its
// inbox, so all packet processing on a node — including an installed
// PLAN-P runtime and its interpreter state — is single-threaded, just
// as on the simulator. Nodes run concurrently with each other; packets
// cross between them over links. The packet ownership protocol doubles
// as the memory model: an owned packet has a single live reference, and
// handing it to a link (channel send or socket write+reparse) is the
// happens-before edge that transfers it to the receiving node's
// goroutine. Unowned (shared) packets are cloned at the link boundary
// so no two goroutines ever touch the same mutable packet.
//
// A node's IP layer is substrate.Stack, the code netsim nodes run too:
// its tables and processor are read on every packet without a lock and
// may change at any time (see substrate/stack.go). A link's fault
// layer is a boxed value behind an atomic pointer in its
// substrate.Port, set by one store.
//
// Links: every link endpoint embeds substrate.Port, the fault verdict
// and event publisher netsim interfaces run too. What is left here
// (endpoint.go) is the medium under it: a meter, the loss counters, a
// timer per delayed copy, and a transport to the peer: a channel to a
// node in this process (NewLink, link.go), or a UDP datagram
// (datagram.go) to a loopback socket (NewUDPLink) or to another daemon
// (NewRemoteLink, remote.go, which adds handshake, liveness and
// admission).
//
// Determinism contract: rtnet is race-clean but NOT reproducible —
// timing, interleaving, and drop behavior vary run to run. Experiments
// that must replay byte-identically belong on netsim; rtnet exists to
// serve live traffic (cmd/planpd).
//
// Observability: the event bus is shared by all node goroutines and
// obs.Bus is not internally synchronized, so subscribers must be
// attached BEFORE Start and must themselves be safe for concurrent
// OnEvent calls (obs counters are; plain slices are not). The metrics
// registry is fully concurrent.
//
// Limitations relative to netsim: no shared segments and no modeled CPU
// cost — rtnet nodes are real concurrent hosts, not simulation
// stand-ins. Multicast routes, group membership and taps are the
// Stack's, so they behave as on the simulator.
package rtnet

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// Net owns a real-time network: its nodes, links, wall clock, RNG,
// timers, and observability substrate. Build the topology, then Start,
// then send traffic, then Close.
type Net struct {
	start time.Time
	bus   *obs.Bus
	reg   *obs.Registry

	// skew shifts Now() by a signed offset (nanoseconds) — the chaos
	// clock-skew primitive. One network is one host's clock, so the
	// skew is network-wide; see substrate.ClockSkewer.
	skew atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand

	mu      sync.Mutex
	byAddr  map[substrate.Addr]*Node
	byName  map[string]*Node
	nodes   []*Node
	timers  map[*time.Timer]struct{}
	closers []io.Closer
	started bool
	closed  bool

	quit chan struct{}
	wg   sync.WaitGroup

	// inflight counts packets enqueued on some node's inbox but not yet
	// fully processed; Quiesce polls it. Traffic chains (receive →
	// forward → receive ...) keep it nonzero continuously because a
	// response is enqueued before its trigger is counted done.
	inflight atomic.Int64
}

// New returns an empty network. The seed feeds the Env RNG draws —
// unlike the simulator's, it does not make runs reproducible (goroutine
// interleaving does not replay), it only makes the randomness source
// explicit: daemons given different seeds draw different streams.
func New(seed int64) *Net {
	return &Net{
		start:  time.Now(),
		rng:    rand.New(rand.NewSource(seed)),
		bus:    &obs.Bus{},
		reg:    obs.NewRegistry(),
		byAddr: map[substrate.Addr]*Node{},
		byName: map[string]*Node{},
		timers: map[*time.Timer]struct{}{},
		quit:   make(chan struct{}),
	}
}

// Now returns the wall-clock time elapsed since the network was
// created, shifted by the injected clock skew (substrate.Env).
// Monotonic by construction while the skew holds still; a skew change
// steps the clock, which is the point of the fault.
func (n *Net) Now() time.Duration {
	return time.Since(n.start) + time.Duration(n.skew.Load())
}

// SetClockSkew shifts every Now reading by d — the chaos clock-skew
// primitive (substrate.ClockSkewer, reached through any of the
// network's nodes). Timers are unaffected: only observations drift,
// not scheduling.
func (n *Net) SetClockSkew(d time.Duration) { n.skew.Store(int64(d)) }

// ClockSkew returns the injected clock skew.
func (n *Net) ClockSkew() time.Duration { return time.Duration(n.skew.Load()) }

// After schedules fn on a real timer (substrate.Env). The callback runs
// on the timer goroutine — PLAN-P runtimes do not use timers, and other
// callers must synchronize anything fn touches. Timers are tracked and
// stopped by Close; fn is suppressed after Close.
func (n *Net) After(d time.Duration, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		// Taking n.mu orders this callback after the registration below
		// (t is assigned before the registrar unlocks) and after any
		// Close that should suppress it.
		n.mu.Lock()
		delete(n.timers, t)
		closed := n.closed
		n.mu.Unlock()
		if !closed {
			fn()
		}
	})
	n.timers[t] = struct{}{}
}

// Int63n returns a pseudo-random integer in [0, v) (substrate.Env).
// Safe for concurrent use, as are Float64 and ExpFloat64.
func (n *Net) Int63n(v int64) int64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Int63n(v)
}

// Float64 draws from the same stream as Int63n (substrate.Env).
func (n *Net) Float64() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64()
}

// ExpFloat64 draws from the same stream as Int63n (substrate.Env).
func (n *Net) ExpFloat64() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.ExpFloat64()
}

// Events returns the network's event bus (substrate.Env). Subscribe
// before Start; subscribers are invoked concurrently from node
// goroutines.
func (n *Net) Events() *obs.Bus { return n.bus }

// Metrics returns the network's metrics registry (substrate.Env).
func (n *Net) Metrics() *obs.Registry { return n.reg }

// Node returns the node with the given address, or nil.
func (n *Net) Node(a substrate.Addr) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.byAddr[a]
}

// NodeByName returns the node with the given name, or nil.
func (n *Net) NodeByName(name string) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.byName[name]
}

// Start launches every node's processing goroutine. Nodes, links and
// event subscribers must be complete: a node added afterwards never
// runs, a subscriber races with live traffic. Routes, bindings, the
// processor and the fault layers may change at any time.
func (n *Net) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started || n.closed {
		return
	}
	n.started = true
	for _, node := range n.nodes {
		n.wg.Add(1)
		go node.run()
	}
}

// Close stops timers, node goroutines, and socket links, then waits for
// them to exit. Idempotent. In-flight packets are discarded.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for t := range n.timers {
		t.Stop()
	}
	n.timers = map[*time.Timer]struct{}{}
	closers := n.closers
	n.closers = nil
	n.mu.Unlock()

	close(n.quit)
	for _, c := range closers {
		c.Close()
	}
	n.wg.Wait()
}

// Quiesce blocks until no packet has been in flight for a short
// continuous window, or timeout elapses; it reports whether the network
// went quiet. This is the real-time analogue of the simulator's Run():
// tests inject traffic, Quiesce, then assert on counters. The idle
// window (25 ms) comfortably covers loopback-UDP latency, during which
// a wire-borne packet is briefly invisible to the inflight count.
func (n *Net) Quiesce(timeout time.Duration) bool {
	const idle = 25 * time.Millisecond
	deadline := time.Now().Add(timeout)
	var quietSince time.Time
	for time.Now().Before(deadline) {
		if n.inflight.Load() == 0 {
			if quietSince.IsZero() {
				quietSince = time.Now()
			} else if time.Since(quietSince) >= idle {
				return true
			}
		} else {
			quietSince = time.Time{}
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// register adds a closer to shut down with the network (socket links).
func (n *Net) register(c io.Closer) {
	n.mu.Lock()
	n.closers = append(n.closers, c)
	n.mu.Unlock()
}

// Interface satisfaction.
var _ substrate.Env = (*Net)(nil)

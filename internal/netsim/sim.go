// Package netsim is a deterministic discrete-event network simulator:
// the execution substrate standing in for the paper's LAN of SUN
// workstations with the PLAN-P Solaris kernel module (§3).
//
// It models hosts and routers (Node), point-to-point duplex links with
// bandwidth, propagation delay, and drop-tail queues (Link), shared
// Ethernet segments as broadcast domains (Segment), an IPv4-flavoured
// address/routing layer with static routes and multicast groups, and
// windowed per-interface load measurement (RateMeter) — everything the
// three ASP experiments exercise.
//
// The simulator is fully virtual-time and, by default, single-threaded:
// experiments that ran for 500 wall-clock seconds in the paper replay
// in milliseconds, identically on every run. Topologies that declare
// shard boundaries (LinkConfig.ShardBoundary) can additionally run
// their islands on parallel event loops without giving up determinism;
// see shard.go and New's WithShards option.
package netsim

import (
	"time"

	"planp.dev/planp/internal/obs"
)

// Simulator owns virtual time and the event queue(s). The zero value is
// not usable; call New.
//
// State lives on shards: shard 0 always exists and carries the
// control-plane clock, sequence counter, and seeded RNG; a one-shard
// simulation has no other. Simulator-level At/After/Now and the RNG
// draws address shard 0. Code running inside node events on a sharded
// simulation must use Node.Env() instead, so timers and randomness land
// on the executing node's shard.
type Simulator struct {
	seed       int64
	wantShards int

	sealed  bool          // topology partitioned (first run)
	horizon time.Duration // lookahead window; noHorizon on one shard
	shards  []*shard
	mergeIx []int // flushObs scratch

	windows, windowEvents, critical int // see CriticalPath

	order  []*Node // creation order (island discovery, determinism)
	links  []*Link
	segs   []*Segment
	nodes  map[Addr]*Node
	nameIx map[string]*Node

	// bus and reg are the simulation's observability substrate: media
	// and nodes publish packet-granular events to bus (free when nobody
	// subscribes) and count traffic in reg.
	bus *obs.Bus
	reg *obs.Registry
}

// Now returns the current virtual time of the control plane (shard 0;
// the one clock in single-shard runs). Between runs all shard clocks
// agree, unless the last run stopped on its event budget.
func (s *Simulator) Now() time.Duration { return s.shards[0].now }

// Int63n, Float64 and ExpFloat64 draw from the control plane's RNG
// (substrate.Env): the one RNG in single-shard runs; node code on
// sharded simulations draws through Node.Env() instead.
func (s *Simulator) Int63n(n int64) int64 { return s.shards[0].rng.Int63n(n) }
func (s *Simulator) Float64() float64     { return s.shards[0].rng.Float64() }
func (s *Simulator) ExpFloat64() float64  { return s.shards[0].rng.ExpFloat64() }

// Events returns the simulation's event bus. Subscribing is allowed at
// any point; with no subscribers the per-packet publish sites are free.
// On sharded runs, events arrive merged in (at, seq, shard) order at
// each synchronization horizon.
func (s *Simulator) Events() *obs.Bus { return s.bus }

// Metrics returns the simulation's metrics registry — the single source
// node and runtime statistics are read from. Instruments are atomic, so
// sharded runs update them race-free.
func (s *Simulator) Metrics() *obs.Registry { return s.reg }

// At schedules fn at absolute virtual time t (clamped to now) on the
// control plane (shard 0). It does not allocate: the event is stored by
// value in the queue (append growth amortizes to zero).
func (s *Simulator) At(t time.Duration, fn func()) { s.shards[0].at(t, fn, nil) }

// After schedules fn d after the current time on the control plane.
func (s *Simulator) After(d time.Duration, fn func()) {
	sh := s.shards[0]
	sh.at(sh.now+d, fn, nil)
}

// RunUntil processes events in timestamp order until the queue is empty
// or the next event is after deadline, then advances the clock to the
// deadline. It returns the number of events processed.
func (s *Simulator) RunUntil(deadline time.Duration) int {
	return s.runLoop(deadline, true, 0)
}

// RunBounded is RunUntil with an event budget: it additionally stops
// once maxEvents events have run. maxEvents <= 0 means unbounded. The
// budget is exact on one shard; on more it is counted per lookahead
// window, so the run stops at the first window boundary where it is
// met. A budget stop never moves a clock, so callers can resume.
func (s *Simulator) RunBounded(deadline time.Duration, maxEvents int) int {
	return s.runLoop(deadline, true, maxEvents)
}

// RunMax processes pending events until the queue is empty or maxEvents
// events have run, without any time deadline. maxEvents <= 0 means
// unbounded (equivalent to Run).
func (s *Simulator) RunMax(maxEvents int) int {
	return s.runLoop(0, false, maxEvents)
}

// Run processes all pending events (useful for tests with naturally
// finite traffic).
func (s *Simulator) Run() int {
	return s.runLoop(0, false, 0)
}

// Node returns the node with the given address, or nil.
func (s *Simulator) Node(a Addr) *Node { return s.nodes[a] }

// NodeByName returns the node with the given name, or nil.
func (s *Simulator) NodeByName(name string) *Node { return s.nameIx[name] }

// evKind discriminates what an event executes on dispatch. The packet
// kinds exist so the media's per-packet scheduling carries the payload
// inside the event value instead of a heap-allocated closure.
type evKind uint8

const (
	evFunc       evKind = iota // run fn
	evReceive                  // ifc.Node.Receive(pkt, ifc)
	evReceiveNow               // node.receiveNow(pkt, ifc) — post-CPU half
)

// event is one scheduled occurrence, stored by value in the queue; seq
// breaks timestamp ties FIFO within a shard. node doubles as the CPU
// target for evReceiveNow and the shard-affinity tag for evFunc events
// scheduled through a node's Env (so pre-seal events migrate to their
// owner shard).
type event struct {
	at   time.Duration
	seq  uint64
	kind evKind
	fn   func()
	node *Node
	pkt  *Packet
	ifc  *Iface
}

// less orders events by (at, seq) — a total order, so any heap pops them
// in exactly the sequence the old container/heap implementation did.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a 4-ary min-heap of inline event values. Relative to the
// previous container/heap of *event it removes the per-schedule box, the
// interface-value conversions, and a level of pointer chasing; the wider
// fan-out roughly halves the sift depth, which matters because sift
// moves whole event values.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	q.siftUp(len(q.ev) - 1)
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // release fn/pkt references for GC
	q.ev = q.ev[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) siftUp(i int) {
	e := q.ev[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(&q.ev[parent]) {
			break
		}
		q.ev[i] = q.ev[parent]
		i = parent
	}
	q.ev[i] = e
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.ev)
	e := q.ev[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.ev[c].less(&q.ev[min]) {
				min = c
			}
		}
		if !q.ev[min].less(&e) {
			break
		}
		q.ev[i] = q.ev[min]
		i = min
	}
	q.ev[i] = e
}

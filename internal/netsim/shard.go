// Sharded execution: conservative parallel discrete-event simulation
// (PDES) over the unchanged single-threaded event core.
//
// # Model
//
// A topology is partitioned into ISLANDS: connected components of the
// node graph where ordinary links and segments merge their endpoints
// and only links marked LinkConfig.ShardBoundary may be cut. Islands
// are packed onto min(WithShards(n), islands) shards; each shard owns
// its nodes, its 4-ary event heap, its clock, its sequence counter,
// and its slice of the RNG space, and runs on its own goroutine.
//
// Cross-shard traffic exists only on boundary links, whose propagation
// delay is the PDES lookahead: a window [T, T+L) — L the minimum delay
// of any boundary link that actually crosses shards — can be executed
// by every shard in parallel, because nothing transmitted inside the
// window can arrive at another shard before T+L. At each horizon the
// coordinator drains the per-shard outboxes into the destination
// heaps (source-shard order, FIFO within a source) and merges the
// shards' buffered observability events into the global bus in
// (at, seq, shard) order.
//
// # Determinism contract
//
// One run loop serves every shard count. With one shard it runs a
// single unbounded window per pass — same heap, same sequence numbers,
// same RNG stream, same publish sites, and an exact event budget.
// Topologies without boundary links (every paper experiment) collapse
// to one island and take that case at any WithShards(n); the engine
// refuses to cut where it cannot prove determinism rather than racing
// and hoping.
//
// Across shard counts (1 vs N), output is byte-identical when
//
//   - workload randomness is per-node deterministic (Env.Int63n draws
//     from the executing shard's RNG: a multi-shard run re-slices the
//     stream), and
//   - no event on one shard shares an exact virtual-time tick with a
//     packet arriving from another shard at the same node-set (ties
//     WITHIN an island order identically in both modes; only
//     cross-boundary ties are sensitive to the ingestion sequence).
//
// The city-scale scenario and the property tests stagger phases,
// periods, and link delays so no cross-boundary tick collides; code
// running inside node events must use Node.Env() for time, timers,
// and randomness so work lands on the owning shard.
package netsim

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/par"
)

// noHorizon is the window length of a one-shard run and of shards that
// share no boundary link at all (fully independent islands need no
// synchronization).
const noHorizon = time.Duration(1) << 60

// shard is one event loop: a slice of the topology with its own clock,
// heap, sequence counter, and RNG. Shard 0 always exists and is the
// control-plane shard (Simulator.At and After schedule here).
type shard struct {
	id  int
	sim *Simulator

	now     time.Duration
	seq     uint64
	execSeq uint64 // seq of the event currently executing (obs merge key)
	queue   timerQueue
	rng     *rand.Rand

	// bus is where this shard's publish sites go: the simulation's
	// global bus with one shard (direct, zero overhead), a local
	// buffering bus when sharded (merged at each horizon).
	bus *obs.Bus
	buf []bufEvent

	// out[d] is the mailbox of packets this shard transmitted toward
	// shard d during the current window; only the owning shard appends,
	// only the coordinator drains (at the barrier).
	out [][]xmsg

	processed int // events executed in the last window
}

// bufEvent is one buffered observability event, tagged with the
// sequence number of the event that published it so the coordinator
// can merge shard streams in (at, seq, shard) order.
type bufEvent struct {
	ev  obs.Event
	seq uint64
}

// xmsg is one cross-shard packet delivery waiting in an outbox.
type xmsg struct {
	at  time.Duration
	pkt *Packet
	ifc *Iface
}

// shardBuffer redirects a shard's publishes into its buffer; it is the
// sole subscriber of a sharded shard's local bus, so Active() on the
// shard bus mirrors whether the global bus has subscribers.
type shardBuffer struct{ sh *shard }

// OnEvent implements obs.Subscriber.
func (b *shardBuffer) OnEvent(ev obs.Event) {
	b.sh.buf = append(b.sh.buf, bufEvent{ev: ev, seq: b.sh.execSeq})
}

// at schedules fn at absolute time t (clamped to the shard clock),
// tagged with the node it belongs to (nil for control events) so
// pre-seal events migrate to their owner shard.
func (sh *shard) at(t time.Duration, fn func(), n *Node) {
	if t < sh.now {
		t = sh.now
	}
	sh.seq++
	sh.queue.push(event{at: t, seq: sh.seq, fn: fn, node: n})
}

// atReceive schedules delivery of pkt to dst's node at absolute time t.
// Same-shard deliveries go straight onto the heap (the zero-allocation
// hot path, identical to the pre-sharding engine); deliveries to
// another shard park in the outbox until the next horizon. Ownership
// travels with the packet: the barrier is the happens-before edge, and
// a single receiver may still reuse the packet in place.
func (sh *shard) atReceive(t time.Duration, pkt *Packet, dst *Iface) {
	if dsh := dst.Node.sh; dsh != sh {
		sh.out[dsh.id] = append(sh.out[dsh.id], xmsg{at: t, pkt: pkt, ifc: dst})
		return
	}
	if t < sh.now {
		t = sh.now
	}
	sh.seq++
	sh.queue.push(event{at: t, seq: sh.seq, kind: evReceive, pkt: pkt, ifc: dst})
}

// atReceiveNow schedules the post-CPU half of Node.Receive; the node
// already lives on this shard.
func (sh *shard) atReceiveNow(t time.Duration, n *Node, pkt *Packet, in *Iface) {
	if t < sh.now {
		t = sh.now
	}
	sh.seq++
	sh.queue.push(event{at: t, seq: sh.seq, kind: evReceiveNow, node: n, pkt: pkt, ifc: in})
}

// dispatch executes one popped event.
func (sh *shard) dispatch(ev *event) {
	sh.now = ev.at
	sh.execSeq = ev.seq
	switch ev.kind {
	case evFunc:
		ev.fn()
	case evReceive:
		ev.ifc.Node.Receive(ev.pkt, ev.ifc)
	case evReceiveNow:
		ev.node.receiveNow(ev.pkt, ev.ifc)
	}
}

// run executes every event at or before end, in (at, seq) order, and
// stops early once budget events have run (budget <= 0: none). Events
// scheduled mid-window for times inside it run in the same pass; only
// cross-shard arrivals are barred, by the lookahead argument.
func (sh *shard) run(end time.Duration, budget int) {
	n := 0
	for budget <= 0 || n < budget {
		ev, ok := sh.queue.popBy(end)
		if !ok {
			break
		}
		sh.dispatch(&ev)
		n++
	}
	sh.processed = n
}

// ---------------------------------------------------------------------------
// Partitioning (seal) and the run loop — coordinator side.

// assertMutable panics on topology mutation after a sharded simulation
// has started: islands, shard assignment, and the horizon are computed
// once at seal. A one-shard simulation stays mutable.
func (s *Simulator) assertMutable() {
	if s.sealed && len(s.shards) > 1 {
		panic("netsim: topology is frozen once a sharded simulation has run")
	}
}

// seal partitions the topology on the first run. With one requested
// shard, no boundary links, or a single island it changes nothing.
func (s *Simulator) seal() {
	if s.sealed {
		return
	}
	s.sealed = true
	if s.wantShards <= 1 || len(s.order) < 2 {
		return
	}

	// Islands: union-find over nodes in creation order; ordinary links
	// and segments merge endpoints, boundary links do not.
	parent := make([]int, len(s.order))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[ra] = rb
		}
	}
	for _, l := range s.links {
		if !l.boundary {
			union(l.a.Node.ix, l.b.Node.ix)
		}
	}
	for _, seg := range s.segs {
		for i := 1; i < len(seg.ifaces); i++ {
			union(seg.ifaces[0].Node.ix, seg.ifaces[i].Node.ix)
		}
	}
	islandOf := map[int]int{}
	var islands [][]*Node
	for i, n := range s.order {
		r := find(i)
		gi, ok := islandOf[r]
		if !ok {
			gi = len(islands)
			islandOf[r] = gi
			islands = append(islands, nil)
		}
		islands[gi] = append(islands[gi], n)
	}

	k := s.wantShards
	if k > len(islands) {
		k = len(islands)
	}
	if k <= 1 {
		return
	}

	// Pack islands onto shards: largest first into the least-loaded
	// shard, ties by discovery order then shard id — deterministic and
	// balanced for the common many-equal-islands case.
	type iref struct{ idx, size int }
	refs := make([]iref, len(islands))
	for i, isl := range islands {
		refs[i] = iref{i, len(isl)}
	}
	sort.SliceStable(refs, func(a, b int) bool { return refs[a].size > refs[b].size })
	load := make([]int, k)
	assign := make([]int, len(islands))
	for _, r := range refs {
		best := 0
		for si := 1; si < k; si++ {
			if load[si] < load[best] {
				best = si
			}
		}
		assign[r.idx] = best
		load[best] += r.size
	}

	// Create shards 1..k-1. Shard 0 keeps the seed RNG (it already made
	// the construction-time draws); the others derive their streams from
	// the seed and shard id.
	sh0 := s.shards[0]
	for id := 1; id < k; id++ {
		s.shards = append(s.shards, &shard{
			id:    id,
			sim:   s,
			now:   sh0.now,
			queue: timerQueue{wheelOn: sh0.queue.wheelOn},
			rng:   rand.New(rand.NewSource(s.seed ^ int64(uint64(id)*0x9E3779B97F4A7C15))),
			bus:   &obs.Bus{},
		})
	}
	// Shard 0's publishes must buffer like everyone else's from now on;
	// the horizon merge republishes to the global bus in order.
	sh0.bus = &obs.Bus{}
	for _, sh := range s.shards {
		sh.out = make([][]xmsg, k)
	}
	for gi, isl := range islands {
		sh := s.shards[assign[gi]]
		for _, n := range isl {
			n.sh = sh
		}
	}

	// Lookahead: the minimum delay of a boundary link whose endpoints
	// landed on different shards (New set it to noHorizon). Islands
	// that ended up co-resident do not constrain the window.
	for _, l := range s.links {
		if l.boundary && l.a.Node.sh != l.b.Node.sh {
			if l.delay <= 0 {
				panic("netsim: shard-boundary link needs positive delay (the delay is the PDES lookahead)")
			}
			if l.delay < s.horizon {
				s.horizon = l.delay
			}
		}
	}

	// Migrate pre-seal events to their owner shards in (at, seq) order,
	// renumbering per shard: relative order within a shard is preserved,
	// which is all the heap's tie-break means.
	q := sh0.queue
	sh0.queue = timerQueue{wheelOn: q.wheelOn}
	for q.len() > 0 {
		ev := q.pop()
		owner := sh0
		switch {
		case ev.node != nil:
			owner = ev.node.sh
		case ev.kind == evReceive:
			owner = ev.ifc.Node.sh
		}
		owner.seq++
		ev.seq = owner.seq
		owner.queue.push(ev)
	}
}

// ShardCount returns the effective shard count, sealing the topology
// if it has not run yet.
func (s *Simulator) ShardCount() int {
	s.seal()
	return len(s.shards)
}

// CriticalPath reports the sharded runs so far in exact integers:
// lookahead windows (barriers) executed, events processed in them, and
// the critical path — the busiest shard's events, summed over windows —
// so events/critical bounds the speed-up on any number of cores. All
// zero on one shard.
func (s *Simulator) CriticalPath() (windows, events, critical int) {
	return s.windows, s.windowEvents, s.critical
}

// runLoop is the coordinator and the only run loop. Each pass drains
// the mailboxes, finds the next event, stops on the budget, stops past
// the deadline, runs one window on every shard, then repeats; on exit
// the clocks align. One shard runs one unbounded window per pass with
// the remaining budget, so its budget is exact; more shards run each
// lookahead window in parallel and count the budget per window. A
// budget stop never moves a clock, so the run can resume.
func (s *Simulator) runLoop(deadline time.Duration, hasDeadline bool, maxEvents int) int {
	s.seal()
	// More workers than cores just adds scheduler churn to every
	// barrier; on one core par.ForEach degrades to a plain loop, so the
	// shards run cooperatively with no goroutines or channel handoffs
	// at all (the single-core regression fix — windows are frequent).
	workers := min(len(s.shards), runtime.GOMAXPROCS(0))
	total := 0
	for {
		s.drainMailboxes()
		next, any := s.nextEventTime()
		if !any {
			break
		}
		if maxEvents > 0 && total >= maxEvents {
			return total
		}
		if hasDeadline && next > deadline {
			break
		}
		end := next + s.horizon - 1
		if end < next {
			end = math.MaxInt64 // overflow clamp
		}
		if hasDeadline && end > deadline {
			end = deadline // events AT the deadline still run
		}
		if len(s.shards) == 1 {
			sh := s.shards[0]
			sh.run(end, maxEvents-total)
			total += sh.processed
			continue
		}
		s.syncShardObs()
		par.ForEach(workers, len(s.shards), func(i int) {
			s.shards[i].run(end, 0)
		})
		busiest := 0
		for _, sh := range s.shards {
			total += sh.processed
			s.windowEvents += sh.processed
			busiest = max(busiest, sh.processed)
		}
		s.windows++
		s.critical += busiest
		s.flushObs()
	}
	// Align clocks: to the deadline when one was given, else to the
	// latest event executed anywhere.
	target := time.Duration(0)
	for _, sh := range s.shards {
		target = max(target, sh.now)
	}
	if hasDeadline {
		target = max(target, deadline)
	}
	for _, sh := range s.shards {
		sh.now = max(sh.now, target)
	}
	return total
}

// nextEventTime returns the earliest pending event time across shards.
func (s *Simulator) nextEventTime() (time.Duration, bool) {
	var next time.Duration
	any := false
	for _, sh := range s.shards {
		if sh.queue.len() == 0 {
			continue
		}
		if t := sh.queue.minAt(); !any || t < next {
			next, any = t, true
		}
	}
	return next, any
}

// drainMailboxes moves every outboxed cross-shard delivery onto its
// destination heap. Order is canonical — destination shards in id
// order, source shards in id order, FIFO within a source — and each
// delivery takes a fresh destination sequence number, so ingestion is
// a pure function of the window's (deterministic) transmissions.
func (s *Simulator) drainMailboxes() {
	for _, dst := range s.shards {
		for _, src := range s.shards {
			box := src.out[dst.id]
			if len(box) == 0 {
				continue
			}
			for i := range box {
				m := &box[i]
				dst.seq++
				dst.queue.push(event{at: m.at, seq: dst.seq, kind: evReceive, pkt: m.pkt, ifc: m.ifc})
				box[i] = xmsg{} // release the packet reference
			}
			src.out[dst.id] = box[:0]
		}
	}
}

// syncShardObs aligns the shard-local buses with the global bus's
// subscriber state at a barrier (mid-run subscriptions take effect at
// horizon granularity in sharded runs).
func (s *Simulator) syncShardObs() {
	active := s.bus.Active()
	for _, sh := range s.shards {
		switch {
		case active && !sh.bus.Active():
			sh.bus.Subscribe(&shardBuffer{sh: sh})
		case !active && sh.bus.Active():
			sh.bus = &obs.Bus{}
		}
	}
}

// flushObs merges the shards' buffered events into the global bus in
// (at, seq, shard) order. Each shard's buffer is already sorted by
// (at, seq) — events append in execution order — so this is a stable
// k-way merge.
func (s *Simulator) flushObs() {
	if s.mergeIx == nil {
		s.mergeIx = make([]int, len(s.shards))
	}
	for i := range s.mergeIx {
		s.mergeIx[i] = 0
	}
	for {
		best := -1
		for si, sh := range s.shards {
			i := s.mergeIx[si]
			if i >= len(sh.buf) {
				continue
			}
			if best < 0 {
				best = si
				continue
			}
			b := &s.shards[best].buf[s.mergeIx[best]]
			c := &sh.buf[i]
			if c.ev.At < b.ev.At || (c.ev.At == b.ev.At && c.seq < b.seq) {
				best = si
			}
		}
		if best < 0 {
			break
		}
		s.bus.Publish(s.shards[best].buf[s.mergeIx[best]].ev)
		s.mergeIx[best]++
	}
	for _, sh := range s.shards {
		sh.buf = sh.buf[:0]
	}
}

// Hierarchical timing wheel: the shard event queue for dense
// short-horizon timers (link deliveries, retransmits, Env.After).
//
// # Why a wheel
//
// The 4-ary heap pays O(log n) value moves per operation, and at
// city scale a shard's heap holds tens of thousands of pending
// deliveries: sift traffic dominates the scheduler (BenchmarkEventQueue
// vs BenchmarkTimerWheel in bench_test.go). A hashed wheel makes the
// common schedule an O(1) append into a time-bucketed slot and only
// pays heap cost for the handful of events that are actually next.
//
// # Structure
//
// timerQueue is a hybrid: a 3-level power-of-two wheel in front of the
// existing eventQueue heap. Level 0 buckets time into ~8.2 µs ticks
// (256 slots ≈ 2.1 ms of horizon), level 1 into ~2.1 ms (≈ 537 ms),
// level 2 into ~537 ms (≈ 137 s). Events beyond the outermost horizon,
// or behind a level's drained frontier, overflow into the heap — the
// heap is both the far-future store and the near-term staging area.
//
// A slot heads a list linked by index through the queue's one pool; a
// drained slot's entries go on its free list, so the pool is as long as
// the most events ever parked at once, not the sum of 768 slots' own
// peaks. A slot's list is last in, first out; a slot drains whole.
//
// # Exact (at, seq) order
//
// The determinism contract requires pops in exactly the (at, seq)
// order the pure heap produces. The wheel never orders events itself:
// before any pop or peek, ensure() drains the earliest occupied slot
// into the heap until the heap's top is strictly earlier than the
// earliest possible wheel event (wheelMin, the earliest occupied
// slot's start time — a lower bound). Draining moves whole slots, so
// same-slot events are tie-broken by the heap's (at, seq) comparison,
// and a strict `<` test means a heap/wheel tie always drains the slot
// first; order is therefore bit-identical to the heap-only engine
// (property-tested in wheel_test.go).
package netsim

import (
	"math"
	"math/bits"
	"time"
)

const (
	// wheelTickShift buckets level 0 into 2^13 ns ≈ 8.2 µs ticks: fine
	// enough that a 1 Gb/s link's per-packet serialization (≈ 8–12 µs)
	// lands in distinct-or-adjacent slots, coarse enough that 256 slots
	// cover every sub-millisecond retransmit/delivery horizon.
	wheelTickShift = 13
	wheelSlotBits  = 8 // 256 slots per level
	wheelSlots     = 1 << wheelSlotBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 3
	wheelWords     = wheelSlots / 64 // occupancy bitmap words per level
)

// timerQueue is the per-shard event queue: a hierarchical timing wheel
// hybridized with the 4-ary eventQueue heap. The zero value is a valid
// empty queue with the wheel disabled — the heap-only reference the
// wheel tests compare against; New enables the wheel on every shard.
type timerQueue struct {
	heap    eventQueue
	wheelOn bool

	wcount int                // events currently parked in wheel slots
	cur    [wheelLevels]int64 // per-level frontier (absolute slot number)
	occ    [wheelLevels][wheelWords]uint64
	slots  [wheelLevels][wheelSlots]int32 // 1 + pool index of the slot's first entry; 0 when empty
	pool   []pooled
	free   int32 // 1 + pool index of the first free entry; 0 when none

	// wheelMin is the start time (ns) of the earliest occupied slot — a
	// lower bound on every wheel event's at. Maintained on insert,
	// recomputed after each drain; meaningless when wcount == 0.
	wheelMin int64
}

// pooled is one entry of a slot's list, or of the free list.
type pooled struct {
	ev   event
	next int32 // 1 + pool index of the list's next entry; 0 ends it
}

func (q *timerQueue) len() int { return q.heap.len() + q.wcount }

// push schedules e. Routing (wheel slot vs heap) is invisible to pop
// order; see the package comment's exactness argument.
func (q *timerQueue) push(e event) {
	if !q.wheelOn {
		q.heap.push(e)
		return
	}
	q.route(e)
}

// route places e in the finest wheel slot that covers it, falling back
// to the heap for events behind a frontier or beyond the outermost
// horizon.
func (q *timerQueue) route(e event) {
	sl := int64(e.at) >> wheelTickShift
	for l := 0; l < wheelLevels; l++ {
		if sl < q.cur[l] {
			// Behind this level's drained frontier: the heap is the
			// always-correct home (ensure compares against it directly).
			break
		}
		if sl < q.cur[l]+wheelSlots {
			idx := int(sl & wheelMask)
			if q.free == 0 {
				q.pool = append(q.pool, pooled{})
				q.free = int32(len(q.pool))
			}
			n := q.free
			q.free = q.pool[n-1].next
			q.pool[n-1] = pooled{ev: e, next: q.slots[l][idx]}
			q.slots[l][idx] = n
			q.occ[l][idx>>6] |= 1 << uint(idx&63)
			q.wcount++
			start := sl << uint(wheelTickShift+l*wheelSlotBits)
			if q.wcount == 1 || start < q.wheelMin {
				q.wheelMin = start
			}
			return
		}
		sl >>= wheelSlotBits
	}
	q.heap.push(e)
}

// ensure establishes the invariant pop and minAt rely on: the heap top
// is the global minimum. It drains earliest slots until the heap's top
// is strictly before every event still parked in the wheel.
func (q *timerQueue) ensure() {
	for q.wcount > 0 {
		if q.heap.len() > 0 && int64(q.heap.ev[0].at) < q.wheelMin {
			return
		}
		q.advance()
	}
}

// pop removes and returns the earliest event in exact (at, seq) order.
func (q *timerQueue) pop() event {
	if q.wcount > 0 {
		q.ensure()
	}
	return q.heap.pop()
}

// minAt returns the earliest pending event time. The queue must be
// non-empty.
func (q *timerQueue) minAt() time.Duration {
	if q.wcount > 0 {
		q.ensure()
	}
	return q.heap.ev[0].at
}

// advance drains the globally earliest occupied slot: level 0 slots
// empty into the heap (which resolves intra-slot (at, seq) order),
// coarser slots cascade their events down through route. Frontiers
// move forward so every drained slot index is free for reuse one full
// rotation later.
func (q *timerQueue) advance() {
	bestL := -1
	var bestSlot, bestStart int64
	for l := 0; l < wheelLevels; l++ {
		sl, ok := q.firstOcc(l)
		if !ok {
			continue
		}
		start := sl << uint(wheelTickShift+l*wheelSlotBits)
		if bestL < 0 || start < bestStart {
			bestL, bestSlot, bestStart = l, sl, start
		}
	}

	idx := int(bestSlot & wheelMask)
	n := q.slots[bestL][idx]
	q.slots[bestL][idx] = 0
	q.occ[bestL][idx>>6] &^= 1 << uint(idx&63)

	// This slot was the global earliest, so every finer level is empty
	// before its start: fast-forward their frontiers to it, then step
	// this level past the drained slot.
	q.cur[bestL] = bestSlot + 1
	for f := 0; f < bestL; f++ {
		q.cur[f] = bestSlot << uint((bestL-f)*wheelSlotBits)
	}

	for n != 0 {
		// Free the entry before route, which may take it or grow the pool.
		e, next := q.pool[n-1].ev, q.pool[n-1].next
		q.pool[n-1] = pooled{next: q.free}
		q.free, n = n, next
		q.wcount--
		if bestL == 0 {
			q.heap.push(e)
		} else {
			q.route(e)
		}
	}

	// Recompute the lower bound for the remaining wheel population.
	q.wheelMin = math.MaxInt64
	for l := 0; l < wheelLevels; l++ {
		if sl, ok := q.firstOcc(l); ok {
			if start := sl << uint(wheelTickShift+l*wheelSlotBits); start < q.wheelMin {
				q.wheelMin = start
			}
		}
	}
}

// firstOcc returns the absolute slot number of the first occupied slot
// at level l, scanning the occupancy bitmap circularly from the
// frontier. All occupied slots live within one rotation of cur[l], so
// bit position p maps to exactly one absolute slot.
func (q *timerQueue) firstOcc(l int) (int64, bool) {
	base := q.cur[l]
	idx := int(base & wheelMask)
	occ := &q.occ[l]
	// Same rotation: bit positions >= idx.
	w := idx >> 6
	word := occ[w] &^ (1<<uint(idx&63) - 1)
	for {
		if word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			return base + int64(p-idx), true
		}
		w++
		if w >= wheelWords {
			break
		}
		word = occ[w]
	}
	// Wrapped: bit positions < idx belong to the next rotation window.
	for w = 0; w <= idx>>6; w++ {
		word = occ[w]
		if w == idx>>6 {
			word &= 1<<uint(idx&63) - 1
		}
		if word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			return base + int64(wheelSlots-idx+p), true
		}
	}
	return 0, false
}

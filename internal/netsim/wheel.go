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
// Each level remembers its earliest occupied slot (first), so finding
// the next slot to drain compares three words instead of scanning
// three bitmaps, and only the level whose slot was just emptied is
// rescanned. The simulator schedules mostly a few ticks ahead and
// finds most level-0 slots holding one event; such a lone earliest
// event is served straight from its slot, without a trip through the
// heap. So the wheel pays per event, not per slot.
//
// # Exact (at, seq) order
//
// The determinism contract requires pops in exactly the (at, seq)
// order the pure heap produces. The wheel never orders two events
// itself: before any pop or peek, ensure() drains the earliest
// occupied slot into the heap until the heap's top is strictly earlier
// than the earliest occupied slot's start (a lower bound on every
// wheel event). Draining moves whole slots, so same-slot events are
// tie-broken by the heap's (at, seq) comparison, and a strict `<` test
// means a heap/wheel tie always drains the slot first. The one event
// that skips the heap is alone in the earliest slot while the heap is
// empty, so nothing is left to order it against; a cross-level tie
// counts the coarser slot as earlier, so it is drained first. Order is
// therefore bit-identical to the heap-only engine (property-tested in
// wheel_test.go).
//
// Frontiers only move forward, and a level's frontier never passes one
// of its occupied slots, so every occupied slot lies within one
// rotation of its level's frontier: a slot index names exactly one
// absolute slot, and first is exact, not merely a bound.
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
	first  [wheelLevels]int64 // 1 + absolute slot number of the level's earliest occupied slot; 0 when empty
	occ    [wheelLevels][wheelWords]uint64
	slots  [wheelLevels][wheelSlots]int32 // 1 + pool index of the slot's first entry; 0 when empty
	pool   []pooled
	free   int32 // 1 + pool index of the first free entry; 0 when none
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
			p := &q.pool[n-1]
			q.free = p.next
			p.ev, p.next = e, q.slots[l][idx]
			q.slots[l][idx] = n
			q.occ[l][idx>>6] |= 1 << uint(idx&63)
			q.wcount++
			if f := q.first[l]; f == 0 || sl < f-1 {
				q.first[l] = sl + 1
			}
			return
		}
		sl >>= wheelSlotBits
	}
	q.heap.push(e)
}

// pop removes and returns the earliest event in exact (at, seq) order.
// The queue must be non-empty.
func (q *timerQueue) pop() event {
	e, _ := q.popBy(math.MaxInt64)
	return e
}

// popBy removes and returns the earliest event in exact (at, seq) order
// if it is due by end; otherwise it reports false and the queue keeps
// every event. One ensure serves the test and the take.
func (q *timerQueue) popBy(end time.Duration) (event, bool) {
	if q.wcount > 0 {
		if n := q.ensure(); n != 0 {
			// The lone event: served from its slot, the slot freed.
			p := &q.pool[n-1]
			if p.ev.at > end {
				return event{}, false
			}
			q.detach(0)
			e := p.ev
			*p = pooled{next: q.free}
			q.free = n
			q.wcount--
			return e, true
		}
	}
	if q.heap.len() == 0 || q.heap.ev[0].at > end {
		return event{}, false
	}
	e := q.heap.pop()
	if q.wcount == 0 && q.wheelOn {
		// An empty wheel has no slot to drain, so nothing else would move
		// its frontiers: bring them up to the clock, or once the clock
		// outran level 2's horizon every later event would overflow to
		// the heap.
		for l := range q.cur {
			q.cur[l] = max(q.cur[l], int64(e.at)>>uint(wheelTickShift+l*wheelSlotBits))
		}
	}
	return e, true
}

// minAt returns the earliest pending event time. The queue must be
// non-empty.
func (q *timerQueue) minAt() time.Duration {
	if q.wcount > 0 {
		if n := q.ensure(); n != 0 {
			return q.pool[n-1].ev.at
		}
	}
	return q.heap.ev[0].at
}

// ensure finds the earliest event. It drains earliest slots until the
// heap's top is strictly before every event still parked in the wheel,
// and then returns 0: the heap's top is the earliest. Or it stops at a
// lone event — the heap empty, and the earliest slot a level-0 slot
// holding only that event — and returns its pool entry (1 + index),
// which the caller reads or takes in place. Level 0 is the earliest
// only when its slot starts strictly before every coarser level's
// first slot; slots nest, so that slot, the lone event's at included,
// lies wholly before them.
func (q *timerQueue) ensure() int32 {
	for q.wcount > 0 {
		l, start := q.earliest()
		if q.heap.len() > 0 {
			if int64(q.heap.ev[0].at) < start {
				return 0
			}
		} else if l == 0 {
			if n := q.slots[0][(q.first[0]-1)&wheelMask]; q.pool[n-1].next == 0 {
				return n
			}
		}
		q.advance(l)
	}
	return 0
}

// earliest returns the level whose first occupied slot starts soonest,
// the coarser level on a tie, and that slot's start time (ns). The
// wheel must be non-empty.
func (q *timerQueue) earliest() (int, int64) {
	best, bestStart := 0, int64(math.MaxInt64)
	for l := wheelLevels - 1; l >= 0; l-- {
		if f := q.first[l]; f != 0 {
			if start := (f - 1) << uint(wheelTickShift+l*wheelSlotBits); start < bestStart {
				best, bestStart = l, start
			}
		}
	}
	return best, bestStart
}

// advance drains level l's first slot, the globally earliest: level 0
// slots empty into the heap (which resolves intra-slot (at, seq)
// order), coarser slots cascade their events down through route.
func (q *timerQueue) advance(l int) {
	n := q.detach(l)
	for n != 0 {
		// Free the entry before route, which may take it or grow the pool.
		p := &q.pool[n-1]
		e, next := p.ev, p.next
		*p = pooled{next: q.free}
		q.free, n = n, next
		q.wcount--
		if l == 0 {
			q.heap.push(e)
		} else {
			q.route(e)
		}
	}
}

// detach empties level l's first slot, the globally earliest, and
// returns its list. Level l's frontier steps past the slot, so its
// index is free for reuse one full rotation later. Every finer level's
// first slot starts after this one (ties go to the coarser level), so
// their frontiers may fast-forward to its start; they never move back.
// Only level l's first is rescanned: finer levels keep theirs, which
// the cascade lowers through route.
func (q *timerQueue) detach(l int) int32 {
	sl := q.first[l] - 1
	idx := int(sl & wheelMask)
	n := q.slots[l][idx]
	q.slots[l][idx] = 0
	q.occ[l][idx>>6] &^= 1 << uint(idx&63)
	q.cur[l] = sl + 1
	for f := 0; f < l; f++ {
		q.cur[f] = max(q.cur[f], sl<<uint((l-f)*wheelSlotBits))
	}
	q.first[l] = q.firstOcc(l)
	return n
}

// firstOcc returns 1 + the absolute slot number of the first occupied
// slot at level l, or 0 when the level is empty, scanning the
// occupancy bitmap circularly from the frontier. All occupied slots
// live within one rotation of cur[l], so bit position p maps to
// exactly one absolute slot.
func (q *timerQueue) firstOcc(l int) int64 {
	base := q.cur[l]
	idx := int(base & wheelMask)
	occ := &q.occ[l]
	// Same rotation: bit positions >= idx.
	w := idx >> 6
	word := occ[w] &^ (1<<uint(idx&63) - 1)
	for {
		if word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			return base + int64(p-idx) + 1
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
			return base + int64(wheelSlots-idx+p) + 1
		}
	}
	return 0
}

// Timing-wheel tests: the exact-order property (wheel+heap pops in the
// same (at, seq) order as the pure heap, for schedules spanning every
// wheel level, the overflow horizon, and behind-frontier inserts), the
// on/off pop equivalence, full-simulation on/off byte-identity, and a
// race hammer that keeps the wheel loaded under sharded ingestion.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"planp.dev/planp/internal/obs"
)

// wheelTestSpans stresses each structural regime of the hierarchy: ties
// inside one tick, level 0/1/2 horizons, and far-future overflow that
// must stay in the heap.
var wheelTestSpans = []time.Duration{
	4 << wheelTickShift,                                    // a few ticks: slot ties dominate
	time.Duration(wheelSlots) << wheelTickShift,            // level 0 horizon (~2.1 ms)
	time.Duration(wheelSlots*wheelSlots) << wheelTickShift, // level 1 (~537 ms)
	200 * time.Second,                                      // level 2 (~137 s) + overflow
}

// TestTimerWheelMatchesReferenceHeap is the determinism property test:
// a wheel-enabled timerQueue and the container/heap reference must
// produce identical (at, seq) pop sequences under randomized push/pop
// schedules. Push-heavy phases keep hundreds of events parked across
// the levels, and pops advance the frontiers so later pushes land
// behind them.
func TestTimerWheelMatchesReferenceHeap(t *testing.T) {
	for trial, span := range wheelTestSpans {
		rng := rand.New(rand.NewSource(int64(41 + trial)))
		q := &timerQueue{wheelOn: true}
		ref := &refHeap{}
		heap.Init(ref)
		seq := uint64(0)
		for op := 0; op < 6000; op++ {
			if q.len() != ref.Len() {
				t.Fatalf("span %v: length diverged: %d vs %d", span, q.len(), ref.Len())
			}
			// 3:2 push:pop bias grows the population toward 1000.
			if q.len() == 0 || rng.Intn(5) < 3 {
				at := time.Duration(rng.Int63n(int64(span)))
				seq++
				q.push(event{at: at, seq: seq})
				heap.Push(ref, &refEvent{at: at, seq: seq})
			} else {
				if got, want := q.minAt(), (*ref)[0].at; got != want {
					t.Fatalf("span %v: minAt %v, reference %v", span, got, want)
				}
				got := q.pop()
				want := heap.Pop(ref).(*refEvent)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("span %v: pop (at=%v seq=%d), reference (at=%v seq=%d)",
						span, got.at, got.seq, want.at, want.seq)
				}
			}
		}
		for q.len() > 0 {
			got := q.pop()
			want := heap.Pop(ref).(*refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("span %v drain: pop (at=%v seq=%d), reference (at=%v seq=%d)",
					span, got.at, got.seq, want.at, want.seq)
			}
		}
	}
}

// TestTimerWheelClockedMatchesReferenceHeap drives the queue the way
// the simulator does: every push is at now + d, now being the last
// popped event's time. Most delays are one to three level-0 ticks, so
// most pops find the heap empty and a lone event in the earliest slot.
// Some land exactly on a level-1 slot start, from now and from past the
// level-0 horizon, so a lone level-0 event ties a level-1 slot's start;
// the rest reach past the level-0 and level-1 horizons. Every minAt and
// pop must agree with the container/heap reference.
func TestTimerWheelClockedMatchesReferenceHeap(t *testing.T) {
	const (
		tick = time.Duration(1) << wheelTickShift
		l1   = tick << wheelSlotBits // a level-1 slot: level 0's horizon
		l2   = l1 << wheelSlotBits   // a level-2 slot: level 1's horizon
	)
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(101 + trial)))
		q := &timerQueue{wheelOn: true}
		ref := &refHeap{}
		var now time.Duration
		seq := uint64(0)
		pops, lone, ties := 0, 0, 0
		pop := func() {
			// A tie that matters: the heap is empty and level 0's first
			// slot holds one event, starting where level 1's does.
			if f0, f1 := q.first[0], q.first[1]; q.heap.len() == 0 && f0 != 0 && f1 != 0 &&
				q.pool[q.slots[0][(f0-1)&wheelMask]-1].next == 0 &&
				(f0-1)<<wheelTickShift == (f1-1)<<(wheelTickShift+wheelSlotBits) {
				ties++
			}
			if got, want := q.minAt(), (*ref)[0].at; got != want {
				t.Fatalf("trial %d pop %d: minAt %v, reference %v", trial, pops, got, want)
			}
			if q.heap.len() == 0 {
				lone++
			}
			got := q.pop()
			want := heap.Pop(ref).(*refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d pop %d: (at=%v seq=%d), reference (at=%v seq=%d)",
					trial, pops, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
			pops++
		}
		for op := 0; op < 20000; op++ {
			if q.len() != ref.Len() {
				t.Fatalf("trial %d: length diverged: %d vs %d", trial, q.len(), ref.Len())
			}
			if q.len() > 0 && rng.Intn(5) < 3 {
				pop()
				continue
			}
			var at time.Duration
			switch r := rng.Intn(100); {
			case r < 70: // one to three ticks
				at = now + tick + time.Duration(rng.Int63n(int64(2*tick)))
			case r < 80: // the next level-1 slot start, usually inside level 0
				at = (now/l1 + 1) * l1
			case r < 88: // a level-1 slot start past the level-0 horizon
				at = ((now+l1)/l1 + 1) * l1
			case r < 96: // past the level-0 horizon
				at = now + l1 + time.Duration(rng.Int63n(int64(4*l1)))
			default: // past the level-1 horizon
				at = now + l2 + time.Duration(rng.Int63n(int64(2*l2)))
			}
			seq++
			q.push(event{at: at, seq: seq})
			heap.Push(ref, &refEvent{at: at, seq: seq})
		}
		for q.len() > 0 {
			pop()
		}
		t.Logf("trial %d: %d of %d pops lone, %d ties", trial, lone, pops, ties)
		if lone < pops/3 || ties == 0 {
			t.Errorf("trial %d: %d of %d pops lone, %d cross-level ties: the schedule misses its cases",
				trial, lone, pops, ties)
		}
	}
}

// TestTimerWheelFrontiersNeverMoveBack pins the invariant that makes
// each level's first slot exact: draining a coarser slot fast-forwards
// the finer frontiers to its start, never back. Level 0 runs ahead
// while level 1's frontier stays at 0, so an event past level 0's
// horizon lands in level 2's slot 1, which starts behind level 0's
// frontier. Draining it must leave level 0's frontier where it is; had
// it moved back, an event near the top of level 0's window would alias
// to a slot a rotation earlier and be served before an earlier event.
func TestTimerWheelFrontiersNeverMoveBack(t *testing.T) {
	const tick = time.Duration(1) << wheelTickShift
	q := &timerQueue{wheelOn: true}
	ref := &refHeap{}
	seq := uint64(0)
	push := func(slot int64) {
		seq++
		at := time.Duration(slot) * tick
		q.push(event{at: at, seq: seq})
		heap.Push(ref, &refEvent{at: at, seq: seq})
	}
	peek := func() {
		if got, want := q.minAt(), (*ref)[0].at; got != want {
			t.Fatalf("minAt slot %d, reference slot %d", got/tick, want/tick)
		}
	}
	pop := func() {
		peek()
		got := q.pop()
		want := heap.Pop(ref).(*refEvent)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop (slot %d seq %d), reference (slot %d seq %d)",
				got.at/tick, got.seq, want.at/tick, want.seq)
		}
	}
	// Step level 0 a window at a time, one lone event per step, to
	// slot 65835: level 2's slot 1 starts at level-0 slot 65536.
	for slot := int64(wheelMask); slot < 65835; slot += wheelMask {
		push(slot)
		pop()
	}
	push(65835)
	pop()
	push(66086) // A: level 0, near the top of its window
	push(66310) // E: past level 0's horizon and level 1's: level 2, slot 1
	peek()      // drains E's slot down to level 1; A is next
	push(65700) // C: behind the clock
	pop()
	push(65900) // D: before A, in another level-0 slot
	for q.len() > 0 {
		pop()
	}
}

// TestTimerWheelFollowsClockAcrossIdleGap pins the frontiers' catch-up:
// a clock that jumps past level 2's horizon while the wheel is empty
// must not leave every later event overflowing to the heap.
func TestTimerWheelFollowsClockAcrossIdleGap(t *testing.T) {
	q := &timerQueue{wheelOn: true}
	q.push(event{at: 200 * time.Second, seq: 1}) // past level 2's horizon
	if q.wcount != 0 {
		t.Fatalf("an event past the horizon is parked in the wheel")
	}
	q.pop()
	q.push(event{at: 200*time.Second + time.Millisecond, seq: 2})
	if q.wcount != 1 {
		t.Fatalf("an event 1 ms after the clock went to the heap: the frontiers stayed behind")
	}
}

// TestTimerWheelOnOffIdenticalPops runs one schedule through a wheeled
// and an unwheeled queue and requires identical pop streams — the wheel
// is a pure performance choice.
func TestTimerWheelOnOffIdenticalPops(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	on := &timerQueue{wheelOn: true}
	off := &timerQueue{wheelOn: false}
	seq := uint64(0)
	for op := 0; op < 5000; op++ {
		if on.len() == 0 || rng.Intn(5) < 3 {
			at := time.Duration(rng.Int63n(int64(600 * time.Millisecond)))
			seq++
			on.push(event{at: at, seq: seq})
			off.push(event{at: at, seq: seq})
		} else {
			a, b := on.pop(), off.pop()
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("op %d: wheel pop (at=%v seq=%d), heap pop (at=%v seq=%d)",
					op, a.at, a.seq, b.at, b.seq)
			}
		}
	}
	for on.len() > 0 {
		a, b := on.pop(), off.pop()
		if a.at != b.at || a.seq != b.seq {
			t.Fatalf("drain: wheel pop (at=%v seq=%d), heap pop (at=%v seq=%d)",
				a.at, a.seq, b.at, b.seq)
		}
	}
	if off.len() != 0 {
		t.Fatalf("heap queue still holds %d events", off.len())
	}
}

// TestTimerWheelPoolReuse pins the slots' shared pool: however a burst
// spreads over the slots, the pool grows to the most events the wheel
// held at once, and the same burst again — shifted by an odd amount, so
// it lands in other slots at every level — reuses it without allocating.
func TestTimerWheelPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	offsets := make([]time.Duration, 2000)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
	}
	q := &timerQueue{wheelOn: true}
	var base time.Duration
	seq, peak := uint64(0), 0
	burst := func() {
		for _, d := range offsets {
			seq++
			q.push(event{at: base + d, seq: seq})
			peak = max(peak, q.wcount)
		}
		for q.len() > 0 {
			if e := q.pop(); e.at < base {
				t.Fatalf("popped at=%v before the burst's base %v", e.at, base)
			}
		}
		base += time.Second + 12345*time.Nanosecond
	}
	burst()
	if peak < len(offsets)/2 || len(q.pool) != peak {
		t.Fatalf("after one burst: pool %d entries, %d events parked at most", len(q.pool), peak)
	}
	burst()
	if n := testing.AllocsPerRun(10, burst); n != 0 {
		t.Errorf("the same burst in other slots allocates %.1f/op, want 0", n)
	}
	if len(q.pool) != peak || q.wcount != 0 {
		t.Errorf("after the bursts: pool %d entries, peak %d, %d still parked", len(q.pool), peak, q.wcount)
	}
}

// TestWheelOnOffSimulationIdentical is the end-to-end leg: a sharded
// ring simulation must produce byte-identical event streams, metrics,
// clocks, and deliveries with the wheel on and off. The heap-only
// reference is selected on shard 0 before anything is scheduled; seal
// copies the choice to the other shards.
func TestWheelOnOffSimulationIdentical(t *testing.T) {
	p := ringParams{islands: 4, hosts: 2, sends: 12, crossHop: 1}
	run := func(wheel bool, shards int) ringRun {
		var trace []byte
		sim := New(WithSeed(5), WithShards(shards),
			WithObserver(obs.Func(func(ev obs.Event) {
				trace = append(trace, ev.String()...)
				trace = append(trace, '\n')
			})))
		sim.shards[0].queue.wheelOn = wheel
		counters := buildRing(sim, p)
		n := sim.Run()
		out := ringRun{
			events: string(trace), metrics: sim.Metrics().Render(),
			processed: n, now: sim.Now(), shards: sim.ShardCount(),
		}
		for _, c := range counters {
			out.delivered = append(out.delivered, *c)
		}
		return out
	}
	for _, shards := range []int{1, 4} {
		ref := run(false, shards)
		got := run(true, shards)
		diffRuns(t, ref, got, fmt.Sprintf("wheel on vs off, shards=%d", shards))
	}
}

// TestWheelShardedIngestionRace keeps every shard's wheel loaded while
// cross-shard mailboxes, the observability merge, and outside metrics
// snapshots run concurrently — the wheel-specific companion to
// TestCrossShardRace for `go test -race`.
func TestWheelShardedIngestionRace(t *testing.T) {
	p := ringParams{islands: 6, hosts: 3, sends: 30, crossHop: 2}
	var sink obs.CountingSink
	sim := New(WithSeed(17), WithShards(4), WithObserver(&sink))
	buildRing(sim, p)
	// Long-horizon timer fans spread across all three wheel levels so
	// cascade drains happen while packets flow.
	for i := 0; i < 400; i++ {
		d := time.Duration(i)*739*time.Microsecond + time.Duration(i*i%997)*time.Nanosecond
		sim.At(d, func() {})
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				sim.Metrics().Snapshot()
			}
		}
	}()
	n := sim.Run()
	close(done)
	if sim.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", sim.ShardCount())
	}
	if n == 0 || sink.Total() == 0 {
		t.Fatalf("hammer ran %d events, observer saw %d — workload did not run", n, sink.Total())
	}
}

// TestTimerWheelPopByDeadline drives popBy the way shard.run does, on a
// clocked schedule, against the container/heap reference: a deadline
// before the earliest event takes nothing and leaves the queue as it
// was, one at or after it takes exactly the reference's next event.
// Deadlines fall before, at and between events, with the earliest
// event both a lone one served from its slot and the heap's top. Then
// shard.run's budget: it stops after budget events, the rest kept.
func TestTimerWheelPopByDeadline(t *testing.T) {
	const tick = time.Duration(1) << wheelTickShift
	rng := rand.New(rand.NewSource(58))
	q := &timerQueue{wheelOn: true}
	ref := &refHeap{}
	var now time.Duration
	seq := uint64(0)
	// taken and refused count popBy's answers by where the earliest event
	// was: [0] a lone event in its slot, [1] the heap's top.
	var taken, refused [2]int
	for op := 0; op < 20000; op++ {
		if q.len() != ref.Len() {
			t.Fatalf("op %d: length diverged: %d vs %d", op, q.len(), ref.Len())
		}
		if q.len() == 0 || rng.Intn(5) < 2 {
			at := now + time.Duration(rng.Int63n(int64(4*tick)))
			if rng.Intn(10) == 0 {
				at = now + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
			}
			seq++
			q.push(event{at: at, seq: seq})
			heap.Push(ref, &refEvent{at: at, seq: seq})
			continue
		}
		next := (*ref)[0].at
		var end time.Duration
		switch rng.Intn(4) {
		case 0: // before
			end = next - 1 - time.Duration(rng.Int63n(int64(tick)))
		case 1: // at
			end = next
		default: // between it and, most often, the events after it
			end = next + time.Duration(rng.Int63n(int64(2*tick)))
		}
		// ensure is idempotent: called here, it finds what popBy's will.
		where := 1
		if q.wcount > 0 && q.ensure() != 0 {
			where = 0
		}
		n := q.len()
		got, ok := q.popBy(end)
		if next > end {
			if ok || q.len() != n {
				t.Fatalf("op %d: popBy(%v) with the earliest event at %v took (at=%v seq=%d) ok=%v, length %d -> %d",
					op, end, next, got.at, got.seq, ok, n, q.len())
			}
			refused[where]++
			continue
		}
		want := heap.Pop(ref).(*refEvent)
		if !ok || got.at != want.at || got.seq != want.seq {
			t.Fatalf("op %d: popBy(%v) = (at=%v seq=%d) ok=%v, reference (at=%v seq=%d)",
				op, end, got.at, got.seq, ok, want.at, want.seq)
		}
		now = got.at
		taken[where]++
	}
	for w, name := range []string{"lone event", "heap top"} {
		if taken[w] == 0 || refused[w] == 0 {
			t.Errorf("%s: %d taken, %d refused; the schedule misses a case", name, taken[w], refused[w])
		}
	}
	if _, ok := (&timerQueue{wheelOn: true}).popBy(math.MaxInt64); ok {
		t.Error("popBy on an empty queue took an event")
	}

	// shard.run: every event due by end runs, in order, up to budget.
	sh := &shard{queue: timerQueue{wheelOn: true}}
	var ran []uint64
	for i := uint64(1); i <= 10; i++ {
		sh.queue.push(event{at: time.Duration(i) * tick, seq: i, kind: evFunc, fn: func() { ran = append(ran, i) }})
	}
	for _, step := range []struct {
		end    time.Duration
		budget int
		want   int // events run so far
	}{{5 * tick, 3, 3}, {5 * tick, 0, 5}, {5 * tick, 0, 5}, {20 * tick, 2, 7}, {20 * tick, 0, 10}} {
		sh.run(step.end, step.budget)
		if len(ran) != step.want || sh.queue.len() != 10-step.want {
			t.Fatalf("run(%v, %d): %d events run, %d left; want %d run", step.end, step.budget, len(ran), sh.queue.len(), step.want)
		}
	}
	for i, s := range ran {
		if s != uint64(i+1) {
			t.Fatalf("events ran in order %v", ran)
		}
	}
}

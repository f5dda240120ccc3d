// Timing-wheel tests: the exact-order property (wheel+heap pops in the
// same (at, seq) order as the pure heap, for schedules spanning every
// wheel level, the overflow horizon, and behind-frontier inserts), the
// on/off pop equivalence, full-simulation on/off byte-identity, and a
// race hammer that keeps the wheel loaded under sharded ingestion.
package netsim

import (
	"container/heap"
	"fmt"
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

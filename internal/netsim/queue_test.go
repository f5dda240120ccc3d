package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap is a container/heap reference implementation with the exact
// ordering contract the simulator promises — (at, seq) lexicographic —
// used to property-test the inlined 4-ary heap. This is what the event
// queue WAS before the zero-allocation rewrite.
type refEvent struct {
	at  time.Duration
	seq uint64
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// TestEventQueueMatchesReferenceHeap drives the 4-ary queue and the
// reference binary heap through identical randomized push/pop schedules
// and requires identical pop sequences. Timestamps are drawn from a
// tiny range so ties — where FIFO order is the paper-relevant
// property — dominate.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var q eventQueue
		ref := &refHeap{}
		heap.Init(ref)
		seq := uint64(0)
		for op := 0; op < 1000; op++ {
			if q.len() != ref.Len() {
				t.Fatalf("trial %d: length diverged: %d vs %d", trial, q.len(), ref.Len())
			}
			if q.len() == 0 || rng.Intn(5) < 3 {
				at := time.Duration(rng.Intn(20)) * time.Millisecond
				seq++
				q.push(event{at: at, seq: seq})
				heap.Push(ref, &refEvent{at: at, seq: seq})
			} else {
				got := q.pop()
				want := heap.Pop(ref).(*refEvent)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("trial %d: pop (at=%v seq=%d), reference (at=%v seq=%d)",
						trial, got.at, got.seq, want.at, want.seq)
				}
			}
		}
		for q.len() > 0 {
			got := q.pop()
			want := heap.Pop(ref).(*refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d drain: pop (at=%v seq=%d), reference (at=%v seq=%d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
		}
	}
}

// TestEventQueueFIFOOnEqualTimes pins the scheduling contract directly:
// events scheduled for the same instant pop in schedule order.
func TestEventQueueFIFOOnEqualTimes(t *testing.T) {
	sim := New(WithSeed(1))
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		sim.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of schedule order: %v", order[:i+1])
		}
	}
}

// TestScheduleZeroAllocs is an acceptance gate of the zero-allocation
// rewrite: At/After on a warmed queue must not allocate (the closure is
// pre-created; the event is an inline heap value, not a boxed pointer).
func TestScheduleZeroAllocs(t *testing.T) {
	sim := New(WithSeed(1))
	fn := func() {}
	// Grow the queue's backing array past anything the loop needs.
	for i := 0; i < 64; i++ {
		sim.At(sim.Now(), fn)
	}
	sim.Run()
	if n := testing.AllocsPerRun(200, func() {
		sim.At(sim.Now(), fn)
		sim.Run()
	}); n != 0 {
		t.Errorf("At + dispatch allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		sim.After(time.Microsecond, fn)
		sim.Run()
	}); n != 0 {
		t.Errorf("After + dispatch allocates %.1f/op, want 0", n)
	}
}

// TestOwnedForwardZeroAllocs is the other acceptance gate: forwarding
// an exclusively-owned packet through a router to local delivery — the
// unobserved unicast hot path — must not allocate. Ownership lets the
// router reuse the packet in place instead of cloning per hop, and
// typed receive events avoid per-transmit closures.
func TestOwnedForwardZeroAllocs(t *testing.T) {
	sim := New(WithSeed(1))
	a := NewNode(sim, "a", MustAddr("10.0.0.1"))
	r := NewNode(sim, "r", MustAddr("10.0.0.254"))
	c := NewNode(sim, "c", MustAddr("10.0.1.1"))
	r.Forwarding = true
	l1 := Connect(sim, a, r, LinkConfig{Bandwidth: 1_000_000_000})
	l2 := Connect(sim, r, c, LinkConfig{Bandwidth: 1_000_000_000})
	a.SetDefaultRoute(l1.Ifaces()[0])
	r.AddRoute(c.Addr, l2.Ifaces()[0])
	c.SetDefaultRoute(l2.Ifaces()[1])
	got := 0
	c.BindUDP(9, func(*Packet) { got++ })

	pkt := NewUDP(a.Addr, c.Addr, 1, 9, make([]byte, 1000))
	runs := 0
	if n := testing.AllocsPerRun(200, func() {
		// Local delivery disowned the packet; this loop is the only
		// remaining reference, so re-owning it each round is sound.
		pkt.IP.TTL = 64
		a.Send(pkt.Own())
		sim.Run()
		runs++
	}); n != 0 {
		t.Errorf("owned forward path allocates %.1f/op, want 0", n)
	}
	if got != runs {
		t.Fatalf("delivered %d of %d", got, runs)
	}
}

package rtnet

import (
	"encoding/binary"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planp.dev/planp/internal/substrate"
)

// The per-packet path reads a node's configuration without a lock:
// these tests hold the Stack's published tables, the boxed processor
// and fault pointers and the drain-first run loop to what the locks
// used to give — no race, no lost packet, the last write wins — and to
// what they cost: nothing per hop. That a published snapshot never
// changes under its reader is tested on the Stack itself
// (internal/substrate).

// seenProc and passProc are processors of two concrete types: over a
// node's life both are stored in the same pointer (an atomic.Value
// would panic on the second). Both pass every packet on.
type seenProc struct {
	in atomic.Pointer[substrate.Iface]
}

func (p *seenProc) Process(_ *substrate.Packet, in substrate.Iface) bool {
	p.in.Store(&in)
	return false
}

type passProc struct{}

func (passProc) Process(*substrate.Packet, substrate.Iface) bool { return false }

func TestReconfigureUnderTraffic(t *testing.T) {
	const sends = 4000
	nw := New(1)
	t.Cleanup(nw.Close)
	client, router, server := NewNode(nw, "client", 1), NewNode(nw, "router", 2), NewNode(nw, "server", 3)
	router.Forwarding = true
	cr, _ := NewLink(nw, client, router, 10e6)
	rsA, _ := NewLink(nw, router, server, 10e6)
	rsB, srB := NewLink(nw, router, server, 10e6) // a second way to the server
	client.SetDefaultRoute(cr)
	router.AddRoute(3, rsA)

	var delivered atomic.Int64
	count := func(*substrate.Packet) { delivered.Add(1) }
	server.BindUDP(7, count)
	router.BindTCP(80, count)
	arrived := &seenProc{}
	server.SetProcessor(arrived)
	nw.Start()

	// Writers: every setter the data plane reads, looped on the router
	// while the flow below runs through it.
	var stop atomic.Bool
	var writers sync.WaitGroup
	loop := func(body func(k int)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for k := 0; !stop.Load(); k++ {
				body(k)
				runtime.Gosched()
			}
		}()
	}
	loop(func(k int) {
		router.AddRoute(3, []substrate.Iface{rsA, rsB}[k%2])
		router.SetDefaultRoute([]substrate.Iface{rsB, nil}[k%2])
	})
	loop(func(k int) {
		router.BindTCP(80, count)
		if k < 32 { // raw bindings only accumulate
			router.BindRaw(func(*substrate.Packet) {})
		}
	})
	loop(func(k int) {
		switch k % 3 {
		case 0:
			router.SetProcessor(passProc{})
		case 1:
			router.SetProcessor(&seenProc{})
		default:
			router.SetProcessor(nil)
		}
	})
	loop(func(k int) {
		if k%2 == 0 {
			var n atomic.Int64
			rsA.SetFault(func(*substrate.Packet) substrate.FaultAction {
				return substrate.FaultAction{Drop: n.Add(1)%2 == 0}
			})
		} else {
			rsA.SetFault(nil)
		}
	})

	// The flow: seven packets in eight cross the router to the server,
	// the eighth is for the router's own TCP binding.
	for k := 0; k < sends; k++ {
		if k%8 == 7 {
			client.Send(substrate.NewTCP(1, 2, 9, 80, 0, 0, []byte("x")).Own())
		} else {
			client.Send(substrate.NewUDP(1, 3, 9, 7, []byte("x")).Own())
		}
		if k%64 == 63 {
			runtime.Gosched() // let the nodes drain: drops are accounted for, not sought
		}
	}
	stop.Store(true)
	writers.Wait()
	if !nw.Quiesce(10 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	var dropped int64
	for name, v := range nw.Metrics().Snapshot() {
		if strings.HasSuffix(name, "dropped_pkts") { // node.*, link.*.dropped_pkts, link.*.fault_dropped_pkts
			dropped += v
		}
	}
	if got := delivered.Load(); got == 0 || got+dropped != sends {
		t.Fatalf("%d delivered + %d dropped != %d sent", got, dropped, sends)
	}

	// The writers are done: the next packet sees the last configuration
	// written — the route moved to the second link, the binding replaced,
	// no processor, no fault.
	var final atomic.Int64
	router.AddRoute(3, rsB)
	router.BindTCP(80, func(*substrate.Packet) { final.Add(1) })
	router.SetProcessor(nil)
	rsA.SetFault(nil)
	if p := router.CurrentProcessor(); p != nil {
		t.Errorf("CurrentProcessor() = %v after SetProcessor(nil)", p)
	}
	before := delivered.Load()
	client.Send(substrate.NewUDP(1, 3, 9, 7, []byte("x")).Own())
	client.Send(substrate.NewTCP(1, 2, 9, 80, 0, 0, []byte("x")).Own())
	waitCounter(t, delivered.Load, before+1)
	waitCounter(t, final.Load, 1)
	if in := arrived.in.Load(); in == nil || *in != substrate.Iface(srB) {
		t.Errorf("the packet after AddRoute(3, second link) arrived on another interface")
	}
}

func TestQueueCapUnderConcurrentSenders(t *testing.T) {
	const senders, each = 8, 200
	nw := New(1) // never started: nothing drains
	t.Cleanup(nw.Close)
	a, b := NewNode(nw, "a", 1), NewNode(nw, "b", 2)
	ab, _ := NewLink(nw, a, b, 10e6)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		pkts := make([]*substrate.Packet, each)
		for k := range pkts {
			pkts[k] = substrate.NewUDP(1, 2, 9, 7, []byte("x")).Own()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pkt := range pkts {
				ab.Send(pkt)
			}
		}()
	}
	wg.Wait()
	if q, in := ab.queued.Load(), len(b.inbox); q != queueCap || in != queueCap {
		t.Errorf("queued = %d, inbox holds %d, want exactly queueCap = %d", q, in, queueCap)
	}
	if got := nw.Metrics().Snapshot()["link.a:b.dropped_pkts"]; got != senders*each-queueCap {
		t.Errorf("link.a:b.dropped_pkts = %d, want %d", got, senders*each-queueCap)
	}
}

// TestSegmentQueueCapUnderConcurrentSenders: a segment has one
// drop-tail bound across all its senders. Members sending at once, and
// attaching while others send, to one receiver on a network that never
// drains leave exactly queueCap frames in its inbox; every other frame
// is one drop counted on the segment.
func TestSegmentQueueCapUnderConcurrentSenders(t *testing.T) {
	const senders, each = 8, 200
	nw := New(1) // never started: nothing drains
	t.Cleanup(nw.Close)
	seg := NewSegment(nw, "lan", 10e6)
	dst := NewNode(nw, "dst", 100)
	seg.Attach(dst, false)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		src := substrate.Addr(s + 1)
		out := seg.Attach(NewNode(nw, "src"+string(rune('a'+s)), src), false)
		pkts := make([]*substrate.Packet, each)
		for k := range pkts {
			pkts[k] = substrate.NewUDP(src, 100, 9, 7, []byte("x")).Own()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pkt := range pkts {
				out.Send(pkt)
			}
		}()
	}
	wg.Wait()
	if q, in := seg.queued.Load(), len(dst.inbox); q != queueCap || in != queueCap {
		t.Errorf("queued = %d, inbox holds %d, want exactly queueCap = %d", q, in, queueCap)
	}
	if got := nw.Metrics().Snapshot()["link.lan.dropped_pkts"]; got != senders*each-queueCap {
		t.Errorf("link.lan.dropped_pkts = %d, want %d", got, senders*each-queueCap)
	}
}

// echoProc answers each frame from `from` at once onto its segment
// attachment, with the same payload, to `to`.
type echoProc struct {
	out            *SegIface
	self, from, to substrate.Addr
}

func (p *echoProc) Process(pkt *substrate.Packet, _ substrate.Iface) bool {
	if pkt.IP.Src == p.from {
		p.out.Send(substrate.NewUDP(p.self, p.to, 7, 8, pkt.Payload).Own())
	}
	return true
}

// orderProc records, for each sequence number, whether the sender's
// frame had arrived when the echo's answer did, and signals each answer.
type orderProc struct {
	sender   substrate.Addr
	seen     []bool
	late     atomic.Int64 // answers that arrived before their frame
	answered chan struct{}
}

func (p *orderProc) Process(pkt *substrate.Packet, _ substrate.Iface) bool {
	k := binary.BigEndian.Uint32(pkt.Payload)
	if pkt.IP.Src == p.sender {
		p.seen[k] = true
	} else {
		if !p.seen[k] {
			p.late.Add(1)
		}
		p.answered <- struct{}{}
	}
	return true
}

// TestSegmentOneFrameOrder: a segment carries one frame at a time, so
// every member sees its frames in one order. A sender S, an echo E that
// answers each of S's frames at once onto the segment, and a
// promiscuous observer O attached after E: O must see each of S's
// frames before E's answer to it, although E has the frame first. The
// answers go to an address no member has, so only O takes them, and
// the window keeps every inbox far from full.
func TestSegmentOneFrameOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const frames, window = 20000, 16
	nw := New(1)
	t.Cleanup(nw.Close)
	seg := NewSegment(nw, "lan", 10e6)
	s, e, o := NewNode(nw, "s", 1), NewNode(nw, "e", 2), NewNode(nw, "o", 3)
	out := seg.Attach(s, false)
	e.SetProcessor(&echoProc{out: seg.Attach(e, false), self: 2, from: 1, to: 9})
	obs := &orderProc{sender: 1, seen: make([]bool, frames), answered: make(chan struct{}, window)}
	seg.Attach(o, true)
	o.SetProcessor(obs)
	nw.Start()

	wait := func() {
		select {
		case <-obs.answered:
		case <-time.After(10 * time.Second):
			t.Fatal("the echo's answers stopped arriving at the observer")
		}
	}
	for k := 0; k < frames; k++ {
		if k >= window {
			wait()
		}
		payload := binary.BigEndian.AppendUint32(nil, uint32(k))
		out.Send(substrate.NewUDP(1, 2, 8, 7, payload).Own())
	}
	for k := 0; k < window; k++ {
		wait()
	}
	if late := obs.late.Load(); late > 0 {
		t.Errorf("the observer saw %d of %d answers before the frame they answer", late, frames)
	}
}

// TestChanHopAllocs: what rt_gateway's alloc_b_op rests on below the
// ASP. An owned packet crosses client — forwarding router — server
// (two channel hops, a route lookup, a binding lookup, the run loop
// twice) without allocating; installing a processor costs its box.
func TestChanHopAllocs(t *testing.T) {
	nw := New(1)
	t.Cleanup(nw.Close)
	ns, err := Line(nw, []LineHost{{Name: "client", Addr: 1}, {Name: "router", Addr: 2, Forwarding: true}, {Name: "server", Addr: 3}}, 10e6, false)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1)
	ns[2].BindUDP(7, func(*substrate.Packet) { done <- struct{}{} })
	nw.Start()
	const runs = 200
	pkts := make([]*substrate.Packet, runs+1)
	for k := range pkts {
		pkts[k] = substrate.NewUDP(1, 3, 9, 7, []byte("x")).Own()
	}
	k := 0
	if got := testing.AllocsPerRun(runs, func() { ns[0].Send(pkts[k]); k++; <-done }); got != 0 {
		t.Errorf("one packet end to end over two channel hops allocates %v times, want 0", got)
	}
	var p substrate.Processor = &seenProc{}
	if got := testing.AllocsPerRun(runs, func() { ns[1].SetProcessor(p) }); got > 1 {
		t.Errorf("SetProcessor allocates %v times, want at most 1 (the box)", got)
	}
}

// TestCloseUnderSendPressure: the run loop takes from the inbox before
// it looks anywhere else, so a sender that keeps the inbox full must not
// be able to keep the node from seeing quit.
func TestCloseUnderSendPressure(t *testing.T) {
	nw := New(1)
	a, b := NewNode(nw, "a", 1), NewNode(nw, "b", 2)
	ab, _ := NewLink(nw, a, b, 10e6)
	a.AddRoute(2, ab)
	var spin atomic.Int64
	b.BindUDP(7, func(*substrate.Packet) { // slower than the sender: the inbox stays full
		for k := 0; k < 2000; k++ {
			spin.Add(1)
		}
	})
	nw.Start()
	var stop atomic.Bool
	sender := make(chan struct{})
	go func() {
		defer close(sender)
		pkt := substrate.NewUDP(1, 2, 9, 7, []byte("x"))
		for !stop.Load() {
			a.Send(pkt)
		}
	}()
	for len(b.inbox) < queueCap/2 {
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() { nw.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Error("Close did not return while a sender kept the inbox full")
	}
	stop.Store(true)
	<-sender
	<-closed
}

// rt_gateway — the live data plane: client — gateway — two servers on
// the real-time backend, every node a goroutine, links in-process
// channels, with the gateway ASP downloaded onto the running gateway.
//
// Why: the same planprt path as sim_gateway, but driven by node
// goroutines handing packets over channels, with rtnet a third or more
// of each op. An rtnet or obs cost added per packet shows here and not
// on the simulator.
//
// Two phases. With a full window every node goroutine works through 32
// packets a turn, so per-packet cost sets the rate: ops_s, from quanta
// of one turn of the window. With one request in flight a turn is that
// request's latency; it is printed for the record and, in the traced
// pass, split into the gateway's Process calls and rtnet's hand-offs. It
// is no end-to-end metric: on a shared host its upper percentiles are
// the host's.
//
// The whole benchmark runs at GOMAXPROCS 1, so the five goroutines of
// this workload take turns on one core and a request costs what its
// instructions cost. On the two virtual CPUs of a shared host every
// hand-off either found the next goroutine's thread spinning or had to
// wake it, and the capacity phase read 149 k req/s in one run and 106 to
// 112 k in the five after it.
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

var (
	rtClientAddr  = substrate.MustAddr("10.0.1.1")
	rtGatewayAddr = substrate.MustAddr("10.0.0.1")
)

const (
	rtWindow  = 32              // requests in flight in the capacity phase
	rtTimeout = 2 * time.Second // a request unanswered this long has failed
)

// rtReply is what the client's raw binding hands the generator.
type rtReply struct {
	seq         uint32
	fromVirtual bool
}

type rtGateway struct {
	seed   int64
	perLat int // requests per latency round
	perCap int // requests per capacity round
	port   func(i int) uint16

	nw      *rtnet.Net
	client  *rtnet.Node
	gateway *rtnet.Node
	rt      *planprt.Runtime
	served  [2]atomic.Int64
	replies chan rtReply
	sent    int // requests issued since setup (drives the port ring)

	wrongSource int
	lat, quanta []float64
	sendAt      []int64 // trace clock at send, per op of the round (traced pass)
	shim        *rtShim
}

func newRTGateway(seed int64, sz sizes) *rtGateway {
	return &rtGateway{
		seed:   seed,
		perLat: sz.pick(2000, 1200),
		perCap: sz.pick(800*rtWindow, 64*rtWindow),
		port:   portRing(seed),
	}
}

func (w *rtGateway) name() string { return "rt_gateway" }
func (w *rtGateway) link() string { return "in-process channel links (rtnet.NewLink), wall clock" }
func (w *rtGateway) phases() []phase {
	return []phase{
		{name: "latency (window 1)", share: 0.2},
		// A quantum is one turn of the window; all are one kind.
		{name: fmt.Sprintf("capacity (window %d)", rtWindow), share: 0.8, rate: true, kinds: 1},
	}
}

func (w *rtGateway) close() {
	if w.nw != nil {
		w.nw.Close()
		w.nw = nil
	}
}

// setup builds the four-node cluster from rtnet's own constructors,
// starts it, and downloads the gateway ASP onto the running gateway.
func (w *rtGateway) setup(tr *tracer) error {
	w.close()
	nw := rtnet.New(w.seed)
	w.nw = nw
	w.client = rtnet.NewNode(nw, "client", rtClientAddr)
	w.gateway = rtnet.NewNode(nw, "gateway", rtGatewayAddr)
	w.gateway.Forwarding = true
	servers := [2]*rtnet.Node{
		rtnet.NewNode(nw, "server0", httpd.Server0Addr),
		rtnet.NewNode(nw, "server1", httpd.Server1Addr),
	}
	const bw = 100_000_000
	clIf, gwCl := rtnet.NewLink(nw, w.client, w.gateway, bw)
	gwS0, s0If := rtnet.NewLink(nw, w.gateway, servers[0], bw)
	gwS1, s1If := rtnet.NewLink(nw, w.gateway, servers[1], bw)
	w.client.SetDefaultRoute(clIf)
	servers[0].SetDefaultRoute(s0If)
	servers[1].SetDefaultRoute(s1If)
	w.gateway.AddRoute(rtClientAddr, gwCl)
	w.gateway.AddRoute(httpd.Server0Addr, gwS0)
	w.gateway.AddRoute(httpd.Server1Addr, gwS1)
	w.gateway.AddRoute(httpd.VirtualAddr, gwS0)

	w.served[0].Store(0)
	w.served[1].Store(0)
	for i := range servers {
		i, node := i, servers[i]
		node.BindTCP(httpd.HTTPPort, func(req *substrate.Packet) {
			w.served[i].Add(1)
			// The response echoes the request's sequence number, which is
			// the op id: it lets the client match replies to requests.
			node.Send(substrate.NewTCP(node.Address(), req.IP.Src, httpd.HTTPPort,
				req.TCP.SrcPort, req.TCP.Seq, substrate.FlagAck|substrate.FlagFin, []byte("hello")).Own())
		})
	}
	// Sized to the window so the client's node goroutine never blocks on
	// the generator.
	w.replies = make(chan rtReply, rtWindow)
	replies := w.replies
	w.client.BindRaw(func(resp *substrate.Packet) {
		if resp.TCP == nil {
			return
		}
		replies <- rtReply{seq: resp.TCP.Seq, fromVirtual: resp.IP.Src == httpd.VirtualAddr}
	})
	w.sent, w.wrongSource = 0, 0
	nw.Start()

	start := tr.now()
	rt, err := planprt.Download(w.gateway, asp.HTTPGateway, planprt.Config{
		Engine: planprt.EngineJIT, Verify: planprt.VerifySingleNode,
	})
	if err != nil {
		return err
	}
	tr.finish("planprt.load", "", -1, 0, start, tr.now())
	w.rt = rt
	w.shim = nil
	if tr != nil {
		w.shim = &rtShim{inner: rt, tr: tr}
		w.gateway.SetProcessor(w.shim)
	}
	return nil
}

// rtShim times the gateway's Process calls on the gateway's goroutine.
// It buffers them; the generator attaches them to their ops once the
// round is over, because a Process call can still be returning when its
// reply has already reached the client.
type rtShim struct {
	inner substrate.Processor
	tr    *tracer

	mu    sync.Mutex
	calls []rtCall
}

type rtCall struct {
	seq        uint32
	start, end int64
}

func (s *rtShim) Process(pkt *substrate.Packet, in substrate.Iface) bool {
	var seq uint32
	if pkt.TCP != nil {
		seq = pkt.TCP.Seq
	}
	start := s.tr.now()
	ok := s.inner.Process(pkt, in)
	end := s.tr.now()
	s.mu.Lock()
	s.calls = append(s.calls, rtCall{seq, start, end})
	s.mu.Unlock()
	return ok
}

func (s *rtShim) drain() []rtCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.calls
	s.calls = nil
	return out
}

// round is a closed loop with one generator goroutine: a window of
// requests goes out, and once every one is answered the next window does.
func (w *rtGateway) round(ph int, idx int64, tr *tracer) (roundResult, error) {
	n, window := w.perLat, 1
	if ph == 1 {
		n, window = w.perCap, rtWindow
	}
	traced := tr != nil && w.shim != nil
	if traced {
		w.shim.drain()
		if cap(w.sendAt) < n {
			w.sendAt = make([]int64, n)
		}
		w.sendAt = w.sendAt[:n]
	}
	var doneAt []int64
	if traced {
		doneAt = make([]int64, n)
	}

	send := func(i int) {
		if traced {
			w.sendAt[i] = tr.now()
		}
		req := substrate.NewTCP(rtClientAddr, httpd.VirtualAddr, w.port(w.sent),
			httpd.HTTPPort, uint32(i), substrate.FlagSyn, nil)
		w.sent++
		w.client.Send(req.Own())
	}
	// The watchdog fires every rtTimeout; a whole interval without a
	// single reply means whatever is in flight is lost.
	watchdog := time.NewTicker(rtTimeout)
	defer watchdog.Stop()

	// A quantum is one turn of the window: window requests sent back to
	// back, then their replies awaited. With one in flight it is the
	// request's latency.
	res := roundResult{ops: n, quanta: w.quanta[:0]}
	next, got, gotAtTick := 0, 0, -1
	fill := func() {
		for k := 0; k < window && next < n; k++ {
			send(next)
			next++
		}
	}
	turnStart := time.Now()
	fill()
	for got < n {
		select {
		case r := <-w.replies:
			if traced && int(r.seq) < n {
				doneAt[r.seq] = tr.now()
			}
			got++
			if !r.fromVirtual {
				w.wrongSource++
				res.failed++
			}
			if got%window == 0 {
				now := time.Now()
				res.quanta = append(res.quanta, float64(now.Sub(turnStart))/1e3)
				turnStart = now
				fill()
			}
		case <-watchdog.C:
			if got == gotAtTick {
				res.failed += n - got
				return res, fmt.Errorf("%w: %d of %d requests unanswered after %v", errCheck, n-got, n, rtTimeout)
			}
			gotAtTick = got
		}
	}
	w.quanta = res.quanta
	if window == 1 {
		w.lat = append(w.lat[:0], res.quanta...) // the harness sorts lat
		res.lat = w.lat
	}
	if traced {
		w.attachSpans(tr, idx, n, window == 1, doneAt)
	}
	return res, nil
}

// attachSpans records the round's spans once the network is quiet. In
// the latency phase each request is an rt.op span (send → reply at the
// client) with the gateway's two planprt.process calls, request and
// response, as children: what is left of the op is rtnet's hand-offs
// plus the server and client apps. In the capacity phase requests
// overlap, so an op's duration is mostly queueing; only the process
// spans are recorded, for the gateway's busy share.
func (w *rtGateway) attachSpans(tr *tracer, idx int64, n int, perOp bool, doneAt []int64) {
	w.nw.Quiesce(time.Second)
	byOp := make(map[uint32][]rtCall, n)
	for _, c := range w.shim.drain() {
		byOp[c.seq] = append(byOp[c.seq], c)
	}
	for i := 0; i < n; i++ {
		op, parent := idx<<32|int64(i), ""
		if perOp {
			parent = "rt.op"
			tr.begin(parent, op)
		}
		for _, c := range byOp[uint32(i)] {
			tr.finish("planprt.process", parent, op, int64(i), c.start, c.end)
		}
		if perOp {
			tr.finish("rt.op", "", op, int64(i), w.sendAt[i], doneAt[i])
		}
	}
}

// check: every response came from the virtual address (counted per
// round), and the ASP split the connections evenly between the servers.
func (w *rtGateway) check() error {
	if w.wrongSource > 0 {
		return fmt.Errorf("%w: %d responses did not come from the virtual address", errCheck, w.wrongSource)
	}
	s0, s1 := w.served[0].Load(), w.served[1].Load()
	total := s0 + s1
	if total == 0 {
		return fmt.Errorf("%w: no request reached a server", errCheck)
	}
	if share := float64(s0) / float64(total); share < 0.49 || share > 0.51 {
		return fmt.Errorf("%w: server0 answered %.1f %% of %d requests, want 49–51 %%", errCheck, share*100, total)
	}
	if st := w.rt.Stats(); st.Errors != 0 {
		return fmt.Errorf("%w: %d ASP exceptions on the gateway", errCheck, st.Errors)
	}
	return nil
}

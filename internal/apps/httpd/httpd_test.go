package httpd

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// clientServer builds a client linked to one server on the simulator.
func clientServer(t *testing.T) (*netsim.Simulator, *netsim.Node, *netsim.Node) {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(1))
	b, err := netsim.Build(sim, &substrate.Topology{
		Nodes: []substrate.NodeSpec{{Name: "client", Addr: substrate.MustAddr("10.0.1.1")}, {Name: "server", Addr: Server0Addr}},
		Links: []substrate.LinkSpec{{A: "client", B: "server", Bandwidth: 100_000_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, b.Nodes[0], b.Nodes[1]
}

// TestResponsePageStaysZero pins what lets every response packet carry
// a slice of one shared page: nothing on a packet's way writes payload
// bytes — not the ASP gateway's rewrite of a whole figure-8 run, and not
// fault injection, whose corrupted packet is a copy.
func TestResponsePageStaysZero(t *testing.T) {
	if _, err := RunPoint(Config{Variant: VariantASPGW}, 300, 2*time.Second, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sim, client, server := clientServer(t)
	NewServer(server, ServerConfig{})
	var resp []*netsim.Packet
	client.BindRaw(func(pkt *netsim.Packet) { resp = append(resp, pkt) })
	client.Send(NewRequest(client.Addr, server.Addr, 10000, MTU+100, 0))
	sim.Run()
	if len(resp) != 2 || len(resp[0].Payload) != MTU || len(resp[1].Payload) != 100 {
		t.Fatalf("want a full and a 100-byte response packet, got %d packets", len(resp))
	}
	if cap(resp[1].Payload) != 100 {
		t.Errorf("a response payload has cap %d beyond its 100 bytes: an append would write the page", cap(resp[1].Payload))
	}
	bad := substrate.CorruptPayload(resp[0], 4242)
	if bytes.Equal(bad.Payload, resp[0].Payload) {
		t.Error("the corrupted copy equals the original")
	}
	if zeroPage != [MTU]byte{} {
		t.Error("the shared response page is no longer all zero")
	}
}

func TestTraceShape(t *testing.T) {
	cfg := DefaultTraceConfig()
	tr := NewTrace(cfg)
	counts := map[int]int{}
	var sum int64
	for i := 0; i < cfg.Accesses; i++ {
		e := tr.Next()
		counts[e.Doc]++
		sum += int64(e.Size)
	}
	if mean := float64(sum) / float64(cfg.Accesses); mean < 3000 || mean > 12000 {
		t.Errorf("mean size = %.0f, want a few KB", mean)
	}
	// Zipf: the most popular document must dominate.
	head := 0
	for _, c := range counts {
		head = max(head, c)
	}
	if head < cfg.Accesses/20 {
		t.Errorf("most popular doc has %d accesses; expected a Zipf head", head)
	}
}

// referenceTrace is the log a Trace replays, built the way the trace
// was once built: sizes first, then every access drawn up front into a
// table that Next walked and wrapped.
func referenceTrace(cfg TraceConfig) []TraceEntry {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Documents-1))
	sizes := make([]int, cfg.Documents)
	var total float64
	for i := range sizes {
		s := math.Exp(rng.NormFloat64()*1.0 + 8.0)
		if s < 256 {
			s = 256
		}
		if s > 200_000 {
			s = 200_000
		}
		sizes[i] = int(s)
		total += s
	}
	scale := float64(cfg.MeanSize) * float64(cfg.Documents) / total
	for i := range sizes {
		sizes[i] = int(float64(sizes[i]) * scale)
		if sizes[i] < 128 {
			sizes[i] = 128
		}
	}
	entries := make([]TraceEntry, cfg.Accesses)
	for i := range entries {
		doc := int(zipf.Uint64())
		entries[i] = TraceEntry{Doc: doc, Size: sizes[doc]}
	}
	return entries
}

// TestTraceReplaysTable pins the generator to the table it replaced:
// its first two passes over Accesses draws are the table twice, so every
// figure that replays a trace reads the accesses it always read,
// wrap-around included.
func TestTraceReplaysTable(t *testing.T) {
	for _, cfg := range []TraceConfig{
		DefaultTraceConfig(),
		{Accesses: 10, Documents: 5, ZipfS: 1.2, MeanSize: 2000, Seed: 9},
	} {
		ref := referenceTrace(cfg)
		tr := NewTrace(cfg)
		for i := 0; i < 2*cfg.Accesses; i++ {
			if got, want := tr.Next(), ref[i%cfg.Accesses]; got != want {
				t.Fatalf("%d accesses: draw %d is %+v, the table holds %+v", cfg.Accesses, i, got, want)
			}
		}
	}
}

func TestSingleServerServes(t *testing.T) {
	tb, err := NewTestbed(Config{Variant: VariantSingle})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace(TraceConfig{Accesses: 1000, Documents: 100, ZipfS: 1.2, MeanSize: 6000, Seed: 3})
	c := NewClient(tb.Clients[0], Server0Addr, 50, tr)
	c.Start(5*time.Second, time.Second)
	tb.Sim.RunUntil(6 * time.Second)
	if c.Completed < 200 {
		t.Errorf("completed %d requests at 50 rps over 5s; want ~250", c.Completed)
	}
	if c.MeanLatency() > 200*time.Millisecond {
		t.Errorf("uncontended latency %v too high", c.MeanLatency())
	}
	if tb.ServerB.Served != 0 {
		t.Errorf("single-server variant used server B (%d)", tb.ServerB.Served)
	}
}

func TestGatewayBalances(t *testing.T) {
	for _, variant := range []Variant{VariantASPGW, VariantNativeGW} {
		t.Run(variant.String(), func(t *testing.T) {
			tb, err := NewTestbed(Config{Variant: variant})
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTrace(TraceConfig{Accesses: 1000, Documents: 100, ZipfS: 1.2, MeanSize: 6000, Seed: 3})
			c := NewClient(tb.Clients[0], VirtualAddr, 100, tr)
			c.Start(5*time.Second, time.Second)
			tb.Sim.RunUntil(6 * time.Second)
			if c.Completed < 300 {
				t.Fatalf("completed %d via gateway, want ~450", c.Completed)
			}
			a, b := tb.ServerA.Served, tb.ServerB.Served
			if a == 0 || b == 0 {
				t.Errorf("load not balanced: A=%d B=%d", a, b)
			}
			ratio := float64(a) / float64(a+b)
			if ratio < 0.4 || ratio > 0.6 {
				t.Errorf("modulo policy should split evenly, got A=%d B=%d", a, b)
			}
		})
	}
}

func TestSaturationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long virtual runs")
	}
	sat := map[Variant]float64{}
	for _, v := range []Variant{VariantSingle, VariantASPGW, VariantNativeGW, VariantDisjoint} {
		s, err := Saturation(Config{Variant: v}, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sat[v] = s
	}
	single, aspGW, natGW, disjoint := sat[VariantSingle], sat[VariantASPGW], sat[VariantNativeGW], sat[VariantDisjoint]
	t.Logf("saturation: single=%.0f asp=%.0f native=%.0f disjoint=%.0f", single, aspGW, natGW, disjoint)

	// Paper claims: (1) ASP == built-in C gateway.
	if d := aspGW/natGW - 1; d < -0.05 || d > 0.05 {
		t.Errorf("ASP (%.0f) vs native (%.0f) gateway differ by more than 5%%", aspGW, natGW)
	}
	// (2) Cluster serves ~1.75x a single server.
	if r := aspGW / single; r < 1.5 || r > 1.95 {
		t.Errorf("cluster/single = %.2f, want ~1.75", r)
	}
	// (3) Gateway reaches ~85% of two servers with disjoint clients.
	if r := aspGW / disjoint; r < 0.72 || r > 0.95 {
		t.Errorf("cluster/disjoint = %.2f, want ~0.85", r)
	}
	// (4) Disjoint clients double the single server.
	if r := disjoint / single; r < 1.8 || r > 2.2 {
		t.Errorf("disjoint/single = %.2f, want ~2", r)
	}
}

func TestInterpreterGatewaySlower(t *testing.T) {
	if testing.Short() {
		t.Skip("long virtual runs")
	}
	jit, err := Saturation(Config{Variant: VariantASPGW, Engine: planprt.EngineJIT}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	interp, err := Saturation(Config{Variant: VariantASPGW, Engine: planprt.EngineInterp}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if interp >= jit {
		t.Errorf("interpreted gateway (%.0f) should saturate below the JIT gateway (%.0f)", interp, jit)
	}
}

func TestResponsesCarryVirtualAddress(t *testing.T) {
	tb, err := NewTestbed(Config{Variant: VariantASPGW})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace(TraceConfig{Accesses: 10, Documents: 5, ZipfS: 1.2, MeanSize: 2000, Seed: 9})
	c := NewClient(tb.Clients[0], VirtualAddr, 10, tr)
	sawPhysical := false
	tb.Clients[0].Tap(func(pkt *netsim.Packet) {
		if pkt.TCP != nil && pkt.TCP.SrcPort == HTTPPort &&
			(pkt.IP.Src == Server0Addr || pkt.IP.Src == Server1Addr) {
			sawPhysical = true
		}
	})
	c.Start(2*time.Second, 0)
	tb.Sim.RunUntil(3 * time.Second)
	if c.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if sawPhysical {
		t.Error("client saw a physical server address; the gateway must restore the virtual address")
	}
}

// TestServerQueueIsFIFO pins the request queue across its O(1) pop: a
// one-worker server answers queued requests in arrival order, QueueMax
// is the deepest the waiting line got (not the slice behind it), the
// slice does not grow with the requests served, and Fail empties it.
func TestServerQueueIsFIFO(t *testing.T) {
	sim, client, server := clientServer(t)
	s := NewServer(server, ServerConfig{Workers: 1, BaseCPU: time.Millisecond})
	var order []uint16
	client.BindRaw(func(pkt *netsim.Packet) { order = append(order, pkt.TCP.DstPort) })

	const burst, rounds = 40, 5
	for r := 0; r < rounds; r++ {
		for i := 0; i < burst; i++ {
			client.Send(NewRequest(client.Addr, server.Addr, uint16(r*burst+i), 100, 0))
		}
		sim.Run()
	}
	if len(order) != burst*rounds || s.Served != burst*rounds {
		t.Fatalf("answered %d, served %d of %d", len(order), s.Served, burst*rounds)
	}
	for i, port := range order {
		if int(port) != i {
			t.Fatalf("response %d answers request %d: not first in, first out", i, port)
		}
	}
	if s.QueueMax != burst-1 {
		t.Errorf("QueueMax = %d, want %d (one request in service, the rest waiting)", s.QueueMax, burst-1)
	}
	if len(s.queue) != 0 || s.head != 0 || cap(s.queue) > 2*burst {
		t.Errorf("after draining: %d queued, head %d, cap %d (burst %d)", len(s.queue), s.head, cap(s.queue), burst)
	}

	for i := 0; i < burst; i++ {
		client.Send(NewRequest(client.Addr, server.Addr, 9000, 100, 0))
	}
	sim.RunUntil(sim.Now() + 5*time.Millisecond)
	s.Fail()
	sim.Run()
	if s.queue != nil || s.head != 0 || len(order) >= burst*(rounds+1) {
		t.Errorf("after Fail: queue %d, head %d, %d responses", len(s.queue), s.head, len(order))
	}
}

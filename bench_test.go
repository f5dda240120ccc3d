// Benchmarks regenerating the paper's tables and figures. One benchmark
// per figure/table plus the engine and design ablations;
// `go test -bench=. -benchmem` prints the measurements, and cmd/aspbench
// renders the same data as paper-style tables.
//
// Index:
//
//	BenchmarkCodegen*        figure 3 (code-generation time per ASP)
//	BenchmarkFigure6*        figure 6 (stepped-load audio run)
//	BenchmarkFigure7*        figure 7 (silent periods cell)
//	BenchmarkFigure8*        figure 8 (HTTP saturation per variant)
//	BenchmarkMPEGShare*      §3.3 (multipoint sharing run)
//	BenchmarkEngine*         §2.2/§2.4 engine ablation (per-packet cost)
//	BenchmarkVerify*         §2.1 late checking cost
//	BenchmarkFrontEnd*       parser/checker throughput
//	BenchmarkSimulator*      raw substrate cost (no PLAN-P)
package planp

import (
	"fmt"
	"io"
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/apps/audio"
	"planp.dev/planp/internal/apps/httpd"
	"planp.dev/planp/internal/apps/mpeg"
	"planp.dev/planp/internal/experiments"
	"planp.dev/planp/internal/lang/engine"
	"planp.dev/planp/internal/lang/langtest"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
	"planp.dev/planp/internal/lang/value"
	"planp.dev/planp/internal/lang/verify"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planprt"
)

// ---------------------------------------------------------------------------
// Figure 3: code-generation time

func benchCodegen(b *testing.B, src string, eng planprt.EngineKind) {
	b.Helper()
	// Parse/check once; figure 3 times code GENERATION (the program
	// arrives checked at the router in AST form, §2.4). NoCache: a cached
	// Load would measure a map lookup, not the compiler.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := planprt.Load(src, planprt.Config{Engine: eng, Verify: planprt.VerifyPrivileged, NoCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodegenAudioRouter(b *testing.B) { benchCodegen(b, asp.AudioRouter, planprt.EngineJIT) }
func BenchmarkCodegenAudioClient(b *testing.B) { benchCodegen(b, asp.AudioClient, planprt.EngineJIT) }
func BenchmarkCodegenHTTPGateway(b *testing.B) { benchCodegen(b, asp.HTTPGateway, planprt.EngineJIT) }
func BenchmarkCodegenMPEGMonitor(b *testing.B) { benchCodegen(b, asp.MPEGMonitor, planprt.EngineJIT) }
func BenchmarkCodegenMPEGClient(b *testing.B)  { benchCodegen(b, asp.MPEGClient, planprt.EngineJIT) }

// ---------------------------------------------------------------------------
// Figure 6: audio adaptation under stepped load

func BenchmarkFigure6AudioAdaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := audio.NewTestbed(audio.Options{Adaptation: audio.AdaptASP})
		if err != nil {
			b.Fatal(err)
		}
		res := tb.RunFigure6()
		if res.LargeKbps > 60 || res.SmallKbps < 80 {
			b.Fatalf("figure 6 shape broken: %+v", res)
		}
		b.ReportMetric(res.QuietKbps, "quiet-kbps")
		b.ReportMetric(res.LargeKbps, "large-kbps")
		b.ReportMetric(res.SmallKbps, "small-kbps")
	}
}

// ---------------------------------------------------------------------------
// Figure 7: silent periods (the over-capacity cell, adaptation on/off)

func BenchmarkFigure7SilentPeriods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, err := audio.RunFigure7(10_100_000, 60*time.Second, audio.Options{Adaptation: audio.AdaptASP, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		without, err := audio.RunFigure7(10_100_000, 60*time.Second, audio.Options{Adaptation: audio.AdaptNone, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(with.SilentPeriods), "gaps-adapted")
		b.ReportMetric(float64(without.SilentPeriods), "gaps-unadapted")
	}
}

// ---------------------------------------------------------------------------
// Figure 8: HTTP cluster saturation per variant

func benchFigure8(b *testing.B, variant httpd.Variant) {
	for i := 0; i < b.N; i++ {
		served, err := httpd.Saturation(httpd.Config{Variant: variant}, 15*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(served, "req/s")
	}
}

func BenchmarkFigure8SingleServer(b *testing.B)  { benchFigure8(b, httpd.VariantSingle) }
func BenchmarkFigure8NativeGateway(b *testing.B) { benchFigure8(b, httpd.VariantNativeGW) }
func BenchmarkFigure8ASPGateway(b *testing.B)    { benchFigure8(b, httpd.VariantASPGW) }
func BenchmarkFigure8Disjoint(b *testing.B)      { benchFigure8(b, httpd.VariantDisjoint) }

// ---------------------------------------------------------------------------
// §3.3: MPEG sharing

func BenchmarkMPEGShare4Viewers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := mpeg.Run(mpeg.Options{Viewers: 4, UseASPs: true}, 20*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if res.ServerConnections != 1 {
			b.Fatalf("sharing broken: %d connections", res.ServerConnections)
		}
		b.ReportMetric(float64(res.ServerFrames), "server-frames")
	}
}

func BenchmarkMPEGPointToPoint4Viewers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := mpeg.Run(mpeg.Options{Viewers: 4, UseASPs: false}, 20*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ServerFrames), "server-frames")
	}
}

// ---------------------------------------------------------------------------
// Engine ablation: per-packet invocation cost (§2.2, §2.4)

// newInstance downloads src under eng onto a counting context and
// returns the instance, the context and the network channel's index.
func newInstance(tb testing.TB, eng planprt.EngineKind, src string) (*engine.Instance, *langtest.Sink, int) {
	tb.Helper()
	p, err := planprt.Load(src, planprt.Config{Engine: eng, Verify: planprt.VerifyPrivileged})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := langtest.NewSink()
	inst, err := p.Compiled.NewInstance(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	return inst, ctx, p.Info.ChannelsByName("network")[0].Index
}

func benchInvoke(b *testing.B, eng planprt.EngineKind, src string, pkt value.Value) {
	b.Helper()
	inst, ctx, ci := newInstance(b, eng, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inst.Invoke(ci, ctx, pkt); err != nil {
			b.Fatal(err)
		}
	}
	if ctx.Sends == 0 {
		b.Fatal("channel sent nothing")
	}
}

// TestPacketPathAllocs (one per package on the packet path; CI runs them
// by name) is the alloc gate on BenchmarkEngineJIT{Gateway,Compute}'s
// loops: neither a gateway invocation on a known connection nor the
// compute kernel allocates — no key string, no key tuple, no send tuple,
// no rewritten header, no result pair, no temporary.
func TestPacketPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		pkt  value.Value
	}{
		{"gateway", asp.HTTPGateway, gatewayPkt()},
		{"compute", asp.BenchCompute, computePkt()},
	} {
		inst, ctx, ci := newInstance(t, planprt.EngineJIT, tc.src)
		if n := testing.AllocsPerRun(200, func() {
			if err := inst.Invoke(ci, ctx, tc.pkt); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("JIT %s invoke allocates %.1f/op, want 0", tc.name, n)
		}
		if ctx.Sends == 0 {
			t.Fatalf("%s sent nothing", tc.name)
		}
	}
}

func gatewayPkt() value.Value {
	return langtest.TCPPacket("10.0.1.1", "10.0.0.100", 4001, 80, []byte("GET /index.html"))
}

func computePkt() value.Value {
	return langtest.UDPPacket("10.0.1.1", "10.0.2.9", 4001, 9, []byte("abcdefgh"))
}

func BenchmarkEngineInterpGateway(b *testing.B) {
	benchInvoke(b, planprt.EngineInterp, asp.HTTPGateway, gatewayPkt())
}
func BenchmarkEngineJITGateway(b *testing.B) {
	benchInvoke(b, planprt.EngineJIT, asp.HTTPGateway, gatewayPkt())
}

func BenchmarkEngineInterpCompute(b *testing.B) {
	benchInvoke(b, planprt.EngineInterp, asp.BenchCompute, computePkt())
}
func BenchmarkEngineJITCompute(b *testing.B) {
	benchInvoke(b, planprt.EngineJIT, asp.BenchCompute, computePkt())
}

// BenchmarkEngineNativeGateway is the hand-written Go handler: the
// paper's "built-in C" comparison point for the per-packet numbers.
func BenchmarkEngineNativeGateway(b *testing.B) {
	experiments.BenchNativeGateway(b, gatewayPkt())
}

// ---------------------------------------------------------------------------
// §2.1: late-checking cost

func BenchmarkVerifyMPEGMonitor(b *testing.B) {
	prog, err := parser.Parse(asp.MPEGMonitor)
	if err != nil {
		b.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := verify.Verify(info); !r.AllOK() {
			b.Fatal("monitor should verify")
		}
	}
}

// ---------------------------------------------------------------------------
// Front-end throughput

func BenchmarkFrontEndParse(b *testing.B) {
	b.SetBytes(int64(len(asp.MPEGMonitor)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(asp.MPEGMonitor); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrontEndTypecheck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := parser.Parse(asp.MPEGMonitor)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := typecheck.Check(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate: raw simulator forwarding (no PLAN-P), to separate the
// simulator's cost from the language's in the figures above.

// benchForwarding is the shared body for the forwarding benchmarks:
// observe hooks the simulator's event bus (nil = unobserved, the no-op
// fast path the acceptance criteria bound to ±5% of the seed).
func benchForwarding(b *testing.B, observe func(*netsim.Simulator)) {
	b.Helper()
	sim := netsim.New(netsim.WithSeed(1))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	r := netsim.NewNode(sim, "r", netsim.MustAddr("10.0.0.254"))
	c := netsim.NewNode(sim, "c", netsim.MustAddr("10.0.1.1"))
	r.Forwarding = true
	l1 := netsim.Connect(sim, a, r, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	l2 := netsim.Connect(sim, r, c, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	a.SetDefaultRoute(l1.Ifaces()[0])
	r.AddRoute(c.Addr, l2.Ifaces()[0])
	c.SetDefaultRoute(l2.Ifaces()[1])
	if observe != nil {
		observe(sim)
	}
	got := 0
	c.BindUDP(9, func(*netsim.Packet) { got++ })
	// A burst of packets is pipelined through the router per Run: the
	// link serializes them back to back, so ns/op measures steady-state
	// per-packet forwarding instead of per-Run turnaround (the seal
	// check). The packets are hoisted out of the measured loop
	// and re-owned each round (local delivery disowned them; the loop
	// holds the only remaining references) — zero allocations per
	// packet on the unobserved path, gated by
	// TestSimulatorForwardingZeroAllocs.
	const burst = 64
	pkts := make([]*netsim.Packet, burst)
	for i := range pkts {
		pkts[i] = netsim.NewUDP(a.Addr, c.Addr, 1, 9, make([]byte, 1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for i := 0; i < b.N; i += burst {
		for _, pkt := range pkts {
			pkt.IP.TTL = 64
			a.Send(pkt.Own())
		}
		sent += burst
		sim.Run()
	}
	b.StopTimer()
	if got != sent {
		b.Fatalf("delivered %d of %d", got, sent)
	}
}

// TestSimulatorForwardingZeroAllocs is the alloc gate on the benchmark
// loop above: send → forward → deliver over the same three-node
// topology must not allocate at all.
func TestSimulatorForwardingZeroAllocs(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	r := netsim.NewNode(sim, "r", netsim.MustAddr("10.0.0.254"))
	c := netsim.NewNode(sim, "c", netsim.MustAddr("10.0.1.1"))
	r.Forwarding = true
	l1 := netsim.Connect(sim, a, r, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	l2 := netsim.Connect(sim, r, c, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	a.SetDefaultRoute(l1.Ifaces()[0])
	r.AddRoute(c.Addr, l2.Ifaces()[0])
	c.SetDefaultRoute(l2.Ifaces()[1])
	c.BindUDP(9, func(*netsim.Packet) {})
	// Same burst shape as the benchmark (the event heap grows in
	// AllocsPerRun's warm-up iteration).
	pkts := make([]*netsim.Packet, 8)
	for i := range pkts {
		pkts[i] = netsim.NewUDP(a.Addr, c.Addr, 1, 9, make([]byte, 1000))
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, pkt := range pkts {
			pkt.IP.TTL = 64
			a.Send(pkt.Own())
		}
		sim.Run()
	}); n != 0 {
		t.Errorf("forwarding hot path allocates %.1f/op, want 0", n)
	}
}

// BenchmarkSimulatorForwarding is the unobserved hot path: no event-bus
// subscribers, so publish sites are a nil/len check and no Event values
// are built.
func BenchmarkSimulatorForwarding(b *testing.B) {
	benchForwarding(b, nil)
}

// BenchmarkSimulatorForwardingObserved pays for observability: a
// counting sink subscribed to the bus, so every enqueue/forward/deliver
// builds and fans out an Event.
func BenchmarkSimulatorForwardingObserved(b *testing.B) {
	var counts obs.CountingSink
	benchForwarding(b, func(sim *netsim.Simulator) {
		sim.Events().Subscribe(&counts)
	})
	if counts.Total() == 0 {
		b.Fatal("observer saw no events")
	}
}

// BenchmarkEventQueue measures raw schedule/dispatch cost through the
// inlined 4-ary heap: one op pushes 256 events at scrambled timestamps
// (so siftDown does real comparisons, unlike monotone insertion) and
// drains them. Allocs/op must be 0 — events are inline heap values.
func BenchmarkEventQueue(b *testing.B) {
	sim := netsim.New(netsim.WithSeed(1))
	fn := func() {}
	offsets := make([]time.Duration, 256)
	x := uint32(2463534242) // xorshift32; fixed seed keeps runs comparable
	for i := range offsets {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		offsets[i] = time.Duration(x%1000) * time.Microsecond
	}
	for _, d := range offsets { // grow the backing array once
		sim.After(d, fn)
	}
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range offsets {
			sim.After(d, fn)
		}
		sim.Run()
	}
}

// BenchmarkPacketFanout measures multicast fan-out: one owned packet
// enters a router and leaves on four interfaces. The fan-out disowns the
// packet (four receivers share the pointer) but still must not copy it —
// copy-on-write means the four deliveries share header and payload.
func BenchmarkPacketFanout(b *testing.B) {
	sim := netsim.New(netsim.WithSeed(1))
	src := netsim.NewNode(sim, "src", netsim.MustAddr("10.0.0.1"))
	r := netsim.NewNode(sim, "r", netsim.MustAddr("10.0.0.254"))
	r.Forwarding = true
	up := netsim.Connect(sim, src, r, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	src.SetDefaultRoute(up.Ifaces()[0])
	group := netsim.MustAddr("224.0.0.7")
	const leaves = 4
	got := 0
	for i := 0; i < leaves; i++ {
		leaf := netsim.NewNode(sim, fmt.Sprintf("leaf%d", i), netsim.MustAddr(fmt.Sprintf("10.0.1.%d", i+1)))
		down := netsim.Connect(sim, r, leaf, netsim.LinkConfig{Bandwidth: 1_000_000_000})
		r.AddMulticastRoute(group, down.Ifaces()[0])
		leaf.SetDefaultRoute(down.Ifaces()[1])
		leaf.JoinGroup(group)
		leaf.BindUDP(9, func(*netsim.Packet) { got++ })
	}
	// Hoisted and re-owned per round, as in benchForwarding: the fan-out
	// disowned the pointer but the loop holds the only live reference
	// once the deliveries ran, so the loop measures pure fan-out — zero
	// allocations per packet, gated by TestPacketFanoutZeroAllocs.
	pkt := netsim.NewUDP(src.Addr, group, 1, 9, make([]byte, 1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.IP.TTL = 64
		src.Send(pkt.Own())
		sim.Run()
	}
	if got != leaves*b.N {
		b.Fatalf("delivered %d of %d", got, leaves*b.N)
	}
}

// TestPacketFanoutZeroAllocs is the alloc gate on the fan-out loop
// above: one owned packet out four interfaces must share its header and
// payload across all deliveries without allocating.
func TestPacketFanoutZeroAllocs(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	src := netsim.NewNode(sim, "src", netsim.MustAddr("10.0.0.1"))
	r := netsim.NewNode(sim, "r", netsim.MustAddr("10.0.0.254"))
	r.Forwarding = true
	up := netsim.Connect(sim, src, r, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	src.SetDefaultRoute(up.Ifaces()[0])
	group := netsim.MustAddr("224.0.0.7")
	for i := 0; i < 4; i++ {
		leaf := netsim.NewNode(sim, fmt.Sprintf("leaf%d", i), netsim.MustAddr(fmt.Sprintf("10.0.1.%d", i+1)))
		down := netsim.Connect(sim, r, leaf, netsim.LinkConfig{Bandwidth: 1_000_000_000})
		r.AddMulticastRoute(group, down.Ifaces()[0])
		leaf.SetDefaultRoute(down.Ifaces()[1])
		leaf.JoinGroup(group)
		leaf.BindUDP(9, func(*netsim.Packet) {})
	}
	pkt := netsim.NewUDP(src.Addr, group, 1, 9, make([]byte, 1000))
	if n := testing.AllocsPerRun(200, func() {
		pkt.IP.TTL = 64
		src.Send(pkt.Own())
		sim.Run()
	}); n != 0 {
		t.Errorf("fan-out hot path allocates %.1f/op, want 0", n)
	}
}

// timerLoadOffsets builds a scrambled timer schedule for the wheel
// benchmarks: n offsets spread over ~500 ms (filling wheel levels 0 and
// 1, with slot ties, and cascading through level 2 on the sentinel's
// drain) plus a sentinel at exactly 2^37 ns — one full level-2
// rotation. The sentinel makes each round's clock advance an amount
// that is ≡ 0 modulo every level's rotation, so round k+1 maps onto
// the SAME slot indices as round k and every round does the same work.
func timerLoadOffsets(n int, seed uint32) []time.Duration {
	offsets := make([]time.Duration, n+1)
	x := seed // xorshift32; fixed seed keeps runs comparable
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		offsets[i] = time.Duration(x%500_000_000) * time.Nanosecond
	}
	offsets[n] = 1 << 37 * time.Nanosecond
	return offsets
}

// BenchmarkTimerWheel drives the scheduler (the hierarchical timing
// wheel, wheel.go) with a dense scrambled timer population — 4096
// pending events across wheel levels 0 and 1 — per op: schedule
// everything, then drain. This is the load shape where heap sift traffic
// dominates and the wheel's O(1) slot appends win. Must run at
// 0 allocs/op — gated by TestTimerWheelZeroAllocs.
func BenchmarkTimerWheel(b *testing.B) {
	sim := netsim.New(netsim.WithSeed(1))
	fn := func() {}
	offsets := timerLoadOffsets(4096, 2463534242)
	for _, d := range offsets { // grow the heap and the slot pool once
		sim.After(d, fn)
	}
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range offsets {
			sim.After(d, fn)
		}
		sim.Run()
	}
}

// TestTimerWheelZeroAllocs gates the steady-state wheel path: once the
// slot pool and the heap have grown, scheduling and draining a dense
// timer population must not allocate.
func TestTimerWheelZeroAllocs(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	fn := func() {}
	offsets := timerLoadOffsets(512, 88172645)
	// Three warm-up rounds: the first grows the pool and the heap (and
	// places the first sentinel before the frontiers are moving
	// periodically), the rest run the now-periodic slot mapping to
	// settle capacities.
	for round := 0; round < 3; round++ {
		for _, d := range offsets {
			sim.After(d, fn)
		}
		sim.Run()
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, d := range offsets {
			sim.After(d, fn)
		}
		sim.Run()
	}); n != 0 {
		t.Errorf("wheel schedule+drain allocates %.1f/op, want 0", n)
	}
}

// TestLinkBurstZeroAllocs gates a link-rate burst: 16 packets serialized
// back to back on one link, each its own delivery event, must reach the
// receiver without allocating once the event heap has grown.
func TestLinkBurstZeroAllocs(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	dst := netsim.NewNode(sim, "b", netsim.MustAddr("10.0.0.2"))
	l := netsim.Connect(sim, a, dst, netsim.LinkConfig{Bandwidth: 1_000_000_000})
	a.SetDefaultRoute(l.Ifaces()[0])
	got := 0
	dst.BindUDP(9, func(*netsim.Packet) { got++ })
	pkts := make([]*netsim.Packet, 16)
	for i := range pkts {
		pkts[i] = netsim.NewUDP(a.Addr, dst.Addr, 1, 9, make([]byte, 1000))
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, pkt := range pkts {
			pkt.IP.TTL = 64
			a.Send(pkt.Own())
		}
		sim.Run()
	}); n != 0 {
		t.Errorf("link burst allocates %.1f/op, want 0", n)
	}
	if got == 0 {
		t.Error("no packet was delivered")
	}
}

// BenchmarkAspbenchSweep runs a full experiment grid through the
// parallel driver (the MPEG viewers x mode sweep — 8 independent
// simulators per op), end to end, exactly as `aspbench -exp mpeg`
// does. This is the driver-level number GOMAXPROCS (-cpu) moves.
func BenchmarkAspbenchSweep(b *testing.B) {
	var sweep experiments.Experiment
	for _, e := range experiments.All() {
		if e.Name == "mpeg" {
			sweep = e
		}
	}
	if sweep.Run == nil {
		b.Fatal("mpeg experiment not registered")
	}
	// Allocation count is reported so a driver- or substrate-level
	// allocation regression shows in a by-hand pair even though a full
	// sweep can't be zero-alloc.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sweep.Run(io.Discard, experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

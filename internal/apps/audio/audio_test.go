package audio

import (
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/netsim/loadgen"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

func TestSourceRate(t *testing.T) {
	tb, err := NewTestbed(Options{Adaptation: AdaptNone})
	if err != nil {
		t.Fatal(err)
	}
	tb.Source.Start(30 * time.Second)
	tb.Sim.RunUntil(30 * time.Second)
	tb.Client.Finish(30 * time.Second)
	// 16-bit stereo at 176 kb/s of audio data.
	got := tb.Wire.Mean(5*time.Second, 30*time.Second)
	if got < 170_000 || got > 182_000 {
		t.Errorf("unloaded audio rate = %.0f b/s, want ~176k", got)
	}
	if tb.Client.Unplayable != 0 {
		t.Errorf("unplayable packets without load: %d", tb.Client.Unplayable)
	}
	if tb.Client.Gaps.Gaps() != 0 {
		t.Errorf("gaps without load: %d", tb.Client.Gaps.Gaps())
	}
}

func TestASPAdaptsUnderLoad(t *testing.T) {
	tb, err := NewTestbed(Options{Adaptation: AdaptASP})
	if err != nil {
		t.Fatal(err)
	}
	// Saturating background load from t=0.
	gen := &loadgen.Generator{Node: tb.LoadGen, Dst: tb.SinkAddr(), DstPort: 40000,
		Steps: []loadgen.Step{{At: 0, Bps: F6LargeBps}}}
	gen.Start(tb.Sim, 40*time.Second)
	tb.Source.Start(40 * time.Second)
	tb.Sim.RunUntil(40 * time.Second)
	tb.Client.Finish(40 * time.Second)

	// The router must degrade to 8-bit mono: ~44 kb/s on the wire.
	got := tb.Wire.Mean(10*time.Second, 40*time.Second)
	if got < 38_000 || got > 55_000 {
		t.Errorf("adapted audio rate = %.0f b/s, want ~44k", got)
	}
	// The client ASP restores packets, so the unmodified player never
	// sees a format it cannot play.
	if tb.Client.Unplayable != 0 {
		t.Errorf("unplayable packets with client ASP: %d", tb.Client.Unplayable)
	}
	if tb.RouterRT.Stats().Errors != 0 {
		t.Errorf("router ASP exceptions: %d", tb.RouterRT.Stats().Errors)
	}
}

func TestWithoutClientASPDegradedPacketsUnplayable(t *testing.T) {
	// Router adapts but the client has no restoration ASP: the
	// unmodified player cannot decode mono packets. This is the
	// experiment that motivates downloading ASPs at end hosts too.
	tb, err := NewTestbed(Options{Adaptation: AdaptASP})
	if err != nil {
		t.Fatal(err)
	}
	tb.Client.Node.SetProcessor(nil) // strip the client ASP
	gen := &loadgen.Generator{Node: tb.LoadGen, Dst: tb.SinkAddr(), DstPort: 40000,
		Steps: []loadgen.Step{{At: 0, Bps: F6LargeBps}}}
	gen.Start(tb.Sim, 20*time.Second)
	tb.Source.Start(20 * time.Second)
	tb.Sim.RunUntil(20 * time.Second)
	if tb.Client.Unplayable == 0 {
		t.Error("expected unplayable packets without the client ASP")
	}
}

func TestNativeMatchesASP(t *testing.T) {
	rates := map[string]float64{}
	for _, mode := range []Adaptation{AdaptASP, AdaptNative} {
		tb, err := NewTestbed(Options{Adaptation: mode})
		if err != nil {
			t.Fatal(err)
		}
		gen := &loadgen.Generator{Node: tb.LoadGen, Dst: tb.SinkAddr(), DstPort: 40000,
			Steps: []loadgen.Step{{At: 0, Bps: F6SmallBps}}}
		gen.Start(tb.Sim, 30*time.Second)
		tb.Source.Start(30 * time.Second)
		tb.Sim.RunUntil(30 * time.Second)
		rates[mode.String()] = tb.Wire.Mean(10*time.Second, 30*time.Second)
	}
	// Both must settle on 16-bit mono (~88 kb/s) under the small load.
	for mode, rate := range rates {
		if rate < 80_000 || rate > 100_000 {
			t.Errorf("%s rate = %.0f b/s, want ~88k", mode, rate)
		}
	}
	diff := rates["asp"] - rates["native"]
	if diff < 0 {
		diff = -diff
	}
	if diff > 5_000 {
		t.Errorf("asp (%.0f) and native (%.0f) disagree by %.0f b/s", rates["asp"], rates["native"], diff)
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("460 virtual seconds")
	}
	tb, err := NewTestbed(Options{Adaptation: AdaptASP})
	if err != nil {
		t.Fatal(err)
	}
	res := tb.RunFigure6()
	if res.QuietKbps < 170 || res.QuietKbps > 182 {
		t.Errorf("quiet phase = %.1f kb/s, want ~176", res.QuietKbps)
	}
	if res.LargeKbps < 38 || res.LargeKbps > 60 {
		t.Errorf("large-load phase = %.1f kb/s, want ~44", res.LargeKbps)
	}
	if res.SmallKbps < 80 || res.SmallKbps > 100 {
		t.Errorf("small-load phase = %.1f kb/s, want ~88", res.SmallKbps)
	}
	if res.MediumKbps <= res.LargeKbps || res.MediumKbps >= res.QuietKbps {
		t.Errorf("medium phase = %.1f kb/s, should sit between large (%.1f) and quiet (%.1f)",
			res.MediumKbps, res.LargeKbps, res.QuietKbps)
	}
	if !res.MediumOscillates {
		t.Error("medium phase should oscillate between 8- and 16-bit mono")
	}
}

func TestFigure7AdaptationReducesGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("long virtual run")
	}
	const load = 10_100_000 // over capacity
	with, err := RunFigure7(load, 60*time.Second, Options{Adaptation: AdaptASP, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RunFigure7(load, 60*time.Second, Options{Adaptation: AdaptNone, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if without.SilentPeriods == 0 {
		t.Error("over-capacity load without adaptation should cause silent periods")
	}
	if with.SilentPeriods >= without.SilentPeriods {
		t.Errorf("adaptation should reduce silent periods: with=%d without=%d",
			with.SilentPeriods, without.SilentPeriods)
	}
	if with.Unplayable != 0 {
		t.Errorf("client ASP should keep every packet playable, %d were not", with.Unplayable)
	}
}

func TestDegradationMath(t *testing.T) {
	src := &Source{}
	payload := src.nextPayload()
	if got := prims.AudioFrames(prims.AudioStereo16, payload); got != FramesPerPacket {
		t.Fatalf("frames = %d, want %d", got, FramesPerPacket)
	}
	mono := prims.DegradeToMono16(payload)
	if mono[0] != prims.AudioMono16 || len(mono) != prims.AudioHeaderLen+FramesPerPacket*2 {
		t.Errorf("mono16 header/size wrong: tag=%d len=%d", mono[0], len(mono))
	}
	low := prims.DegradeToMono8(payload)
	if low[0] != prims.AudioMono8 || len(low) != prims.AudioHeaderLen+FramesPerPacket {
		t.Errorf("mono8 header/size wrong: tag=%d len=%d", low[0], len(low))
	}
	back := prims.RestoreStereo16(low)
	if back[0] != prims.AudioStereo16 || len(back) != len(payload) {
		t.Errorf("restore header/size wrong: tag=%d len=%d want %d", back[0], len(back), len(payload))
	}
	// Idempotence: degrading an already-degraded payload is a no-op.
	if again := prims.DegradeToMono8(low); string(again) != string(low) {
		t.Error("DegradeToMono8 not idempotent")
	}
	// Restoration preserves the sequence number.
	if back[1] != payload[1] || back[4] != payload[4] {
		t.Error("sequence number lost in degrade/restore cycle")
	}
}

func TestSegmentLoadVisibleToRouter(t *testing.T) {
	tb, err := NewTestbed(Options{Adaptation: AdaptNone})
	if err != nil {
		t.Fatal(err)
	}
	gen := &loadgen.Generator{Node: tb.LoadGen, Dst: tb.SinkAddr(), DstPort: 40000,
		Steps: []loadgen.Step{{At: 0, Bps: 5_000_000}}}
	gen.Start(tb.Sim, 5*time.Second)
	tb.Sim.RunUntil(5 * time.Second)
	ifc := tb.Router.Route(tb.Group)
	if ifc == nil {
		t.Fatal("router has no route to the multicast group")
	}
	load := ifc.Load()
	if load < 40 || load > 60 {
		t.Errorf("router sees %d%% load, want ~50%%", load)
	}
}

func TestAdaptationComposesAcrossRouters(t *testing.T) {
	// Two ASP routers in series: a congested second hop can only
	// degrade further, never upgrade (degradation idempotence).
	sim := netsim.New(netsim.WithSeed(3))
	b, err := netsim.Build(sim, &substrate.Topology{
		Nodes: []substrate.NodeSpec{
			{Name: "src", Addr: substrate.MustAddr("10.1.0.1")},
			{Name: "r1", Addr: substrate.MustAddr("10.1.0.254"), Forwarding: true},
			{Name: "r2", Addr: substrate.MustAddr("10.2.0.254"), Forwarding: true},
			{Name: "cl", Addr: substrate.MustAddr("10.3.0.1")},
		},
		Links: []substrate.LinkSpec{
			{A: "src", B: "r1", Bandwidth: 100_000_000},
			{A: "r1", B: "r2", Bandwidth: 10_000_000},
			{A: "r2", B: "cl", Bandwidth: 256_000}, // slow last hop
		},
		Mroutes: []substrate.RouteSpec{{Node: "r1", Dst: group, Via: "r2"}, {Node: "r2", Dst: group, Via: "cl"}},
		Joins:   []substrate.JoinSpec{{Node: "cl", Group: group}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, r1, r2, cl := b.Nodes[0], b.Nodes[1], b.Nodes[2], b.Nodes[3]

	for _, n := range []*netsim.Node{r1, r2} {
		if _, err := planprt.Download(n, asp.AudioRouter, planprt.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	client := NewClient(cl)
	wire := MeterAudio(cl)
	s := &Source{Node: src, Dst: group}
	s.Start(30 * time.Second)
	sim.RunUntil(30 * time.Second)

	// 176 kb/s audio on a 256 kb/s last hop is ~70% load: r2 degrades
	// on its own, with no load generator at all. Because the audio is
	// the only traffic, the control loop oscillates (degrading lowers
	// the measured load, which re-enables full quality), so assert that
	// substantial degradation happened rather than a stable level.
	got := wire.Mean(10*time.Second, 30*time.Second)
	if got < 60_000 || got > 170_000 {
		t.Errorf("two-router adapted rate = %.0f b/s, want degraded below 176k", got)
	}
	// Without a client ASP the delivered packets stay mono16: the
	// unmodified player counts them unplayable.
	if client.ByFormat[prims.AudioMono16] == 0 {
		t.Error("expected 16-bit mono packets at the client")
	}
}

package audio

import (
	"testing"
	"time"

	"planp.dev/planp/internal/lang/prims"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/netsim/loadgen"
	"planp.dev/planp/internal/obs"
)

// TestFigure6SeriesUnchangedByRegistryBackend pins the figure-6 series
// against the observability refactor: the registry-backed meter
// (MeterAudio recording into the simulation's metrics registry) must
// produce byte-identical output to an independent reference tap that
// accumulates the same windowed on-wire rate with plain local state —
// the way the pre-registry implementation did.
func TestFigure6SeriesUnchangedByRegistryBackend(t *testing.T) {
	tb, err := NewTestbed(Options{Adaptation: AdaptASP})
	if err != nil {
		t.Fatal(err)
	}

	// Reference meter: same windowing logic, no registry involved.
	ref := &obs.Series{Name: WireSeriesName}
	var bits int64
	var windowStart time.Duration
	const window = time.Second
	clientNode := tb.ClientNode
	clientNode.Tap(func(pkt *netsim.Packet) {
		if pkt.UDP == nil || pkt.UDP.DstPort != Port {
			return
		}
		now := clientNode.Sim().Now()
		for now-windowStart >= window {
			ref.Add(windowStart+window, float64(bits)/window.Seconds())
			windowStart += window
			bits = 0
		}
		bits += int64(len(pkt.Payload)-prims.AudioHeaderLen) * 8
	})

	// A compressed figure-6 load timeline: quiet, heavy, light.
	const end = 30 * time.Second
	gen := &loadgen.Generator{
		Node: tb.LoadGen, Dst: tb.SinkAddr(), DstPort: 40000,
		Steps: []loadgen.Step{
			{At: 0, Bps: 0},
			{At: 10 * time.Second, Bps: 9_300_000},
			{At: 20 * time.Second, Bps: 5_500_000},
		},
	}
	gen.Start(tb.Sim, end)
	tb.Source.Start(end)
	tb.Sim.RunUntil(end)

	got := tb.Wire.Render(2 * time.Second)
	want := ref.Render(2 * time.Second)
	if got != want {
		t.Errorf("registry-backed series diverged from reference:\n--- registry\n%s--- reference\n%s", got, want)
	}
	if tb.Wire.Len() == 0 {
		t.Fatal("wire series is empty — meter not recording")
	}

	// The series must be reachable through the registry by name, and be
	// the same object the testbed exposes.
	if s := tb.Sim.Metrics().LookupSeries(WireSeriesName); s != tb.Wire {
		t.Error("registry lookup did not return the testbed's wire series")
	}

	// Sanity: adaptation actually happened (full quality early, degraded
	// under heavy load), so the pin covers a nontrivial curve.
	if early := tb.Wire.Mean(2*time.Second, 10*time.Second); early < 150_000 {
		t.Errorf("early-phase rate %.0f b/s, expected near 176 kb/s", early)
	}
	if heavy := tb.Wire.Mean(14*time.Second, 20*time.Second); heavy > 120_000 {
		t.Errorf("heavy-phase rate %.0f b/s, expected degraded below 120 kb/s", heavy)
	}
}

package city

import (
	"strings"
	"testing"
)

// TestTinyShardInvariance: the city's counter report must be
// byte-identical whatever shard count the engine runs on.
func TestTinyShardInvariance(t *testing.T) {
	ref := mustRun(t, Tiny, 1)
	if ref.Shards != 1 {
		t.Fatalf("reference run used %d shards", ref.Shards)
	}
	for _, n := range []int{2, 4} {
		got := mustRun(t, Tiny, n)
		want := n
		if want > Tiny.Regions {
			want = Tiny.Regions
		}
		if got.Shards != want {
			t.Errorf("shards=%d: effective count %d, want %d", n, got.Shards, want)
		}
		if got.Output != ref.Output {
			t.Errorf("shards=%d: output diverges\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
				n, ref.Output, n, got.Output)
		}
		if got.Events != ref.Events {
			t.Errorf("shards=%d: %d events, want %d", n, got.Events, ref.Events)
		}
	}
}

// TestCIShardInvariance is the configuration the CI scale job diffs;
// running it in-tree keeps the job honest between workflow runs.
func TestCIShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("CI-preset city is slow in -short mode")
	}
	ref := mustRun(t, CI, 1)
	got := mustRun(t, CI, 4)
	if got.Shards != 4 {
		t.Fatalf("CI preset ran on %d shards, want 4", got.Shards)
	}
	if got.Output != ref.Output {
		t.Fatalf("CI city diverges between 1 and 4 shards\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s",
			ref.Output, got.Output)
	}
}

// TestCityTrafficFlows sanity-checks the scenario itself: requests are
// answered, both servers share the load, audio reaches the tree, and
// cross-region traffic survives the ring.
func TestCityTrafficFlows(t *testing.T) {
	res := mustRun(t, Tiny, 2)
	get := func(key string) string {
		for _, line := range strings.Split(res.Output, "\n") {
			if f, ok := strings.CutPrefix(line, key+" "); ok {
				return f
			}
		}
		t.Fatalf("output missing %q:\n%s", key, res.Output)
		return ""
	}
	if get("city.total.requests") != get("city.total.responses") {
		t.Errorf("requests %s != responses %s (in-flight cutoff aside, Tiny should drain)",
			get("city.total.requests"), get("city.total.responses"))
	}
	if get("city.total.drops") != "0" {
		t.Errorf("unexpected drops: %s", get("city.total.drops"))
	}
	for _, key := range []string{"city.region0.served_a", "city.region0.served_b", "city.total.audio"} {
		if get(key) == "0" {
			t.Errorf("%s = 0, want traffic", key)
		}
	}
	if res.Nodes != Tiny.Regions*(4+2*Tiny.EdgesPerRegion) {
		t.Errorf("Nodes = %d, want %d", res.Nodes, Tiny.Regions*(4+2*Tiny.EdgesPerRegion))
	}
	if res.Packets == 0 || res.Events == 0 {
		t.Errorf("empty run: packets=%d events=%d", res.Packets, res.Events)
	}
}

func mustRun(t *testing.T, preset Config, shards int) *Result {
	t.Helper()
	cfg := preset
	cfg.Shards = shards
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardCriticalPath pins the shard engine's deterministic
// scalability reading for the CI preset: the same windows and events
// at every shard count, and a critical path (per-window busiest shard,
// summed) that halves as the shards double — the partition is balanced.
// Exact integers, not timings: a change to the partitioner, the
// lookahead or the workload's phase stagger shows up here.
func TestShardCriticalPath(t *testing.T) {
	for _, want := range []struct{ shards, windows, events, critical int }{
		{1, 0, 5417, 0}, // the single-threaded engine has no windows
		{2, 20, 5417, 2743},
		{4, 20, 5417, 1407},
	} {
		got := mustRun(t, CI, want.shards)
		if got.Windows != want.windows || got.Events != want.events || got.CriticalEvents != want.critical {
			t.Errorf("shards=%d: windows=%d events=%d critical=%d, want %d/%d/%d", want.shards,
				got.Windows, got.Events, got.CriticalEvents, want.windows, want.events, want.critical)
		}
	}
}

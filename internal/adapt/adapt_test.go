// Pure-function tests: windows, guards and the run list. Nothing here
// sleeps, polls, or deploys — every verdict is a function of
// snapshots, which is the package's core design claim.
package adapt

import (
	"reflect"
	"testing"
	"time"

	"planp.dev/planp/internal/fleet"
)

// snapAt builds a single-counter snapshot at mono offset.
func snapAt(node string, mono time.Duration, name string, val int64) Snapshot {
	return Snapshot{Node: node, MonoNS: int64(mono), Stats: map[string]int64{name: val}}
}

func TestWindowRates(t *testing.T) {
	w := Window{
		Before: Snapshot{MonoNS: int64(1 * time.Second), Stats: map[string]int64{"drops": 10}},
		After:  Snapshot{MonoNS: int64(3 * time.Second), Stats: map[string]int64{"drops": 30, "new": 4}},
	}
	if got := w.Duration(); got != 2*time.Second {
		t.Errorf("Duration = %v, want 2s", got)
	}
	if got := w.Delta("drops"); got != 20 {
		t.Errorf("Delta(drops) = %d, want 20", got)
	}
	if got := w.Rate("drops"); got != 10 {
		t.Errorf("Rate(drops) = %g, want 10/s", got)
	}
	// A counter that appeared mid-window deltas from zero.
	if got := w.Rate("new"); got != 2 {
		t.Errorf("Rate(new) = %g, want 2/s", got)
	}
	// Unknown counters rate 0; windows never panic on missing names.
	if got := w.Rate("absent"); got != 0 {
		t.Errorf("Rate(absent) = %g, want 0", got)
	}

	// Degenerate window (daemon restarted; mono went backwards): rate 0,
	// not negative or infinite.
	back := Window{
		Before: Snapshot{MonoNS: int64(5 * time.Second), Stats: map[string]int64{"drops": 100}},
		After:  Snapshot{MonoNS: int64(1 * time.Second), Stats: map[string]int64{"drops": 3}},
	}
	if got := back.Rate("drops"); got != 0 {
		t.Errorf("backwards window Rate = %g, want 0", got)
	}
	var zero Window
	if zero.Rate("anything") != 0 || zero.Delta("anything") != 0 {
		t.Error("zero window must rate and delta as 0")
	}
}

func TestParseGuard(t *testing.T) {
	cases := []struct {
		in   string
		want Guard
	}{
		{"node.{node}.drops<=5", Guard{Metric: "node.{node}.drops", Max: 5}},
		{"asp.gw.faults<=0.25", Guard{Metric: "asp.gw.faults", Max: 0.25}},
		{"errs<=2x", Guard{Metric: "errs", Relative: true, Ratio: 2}},
		{"errs<=1.5x+0.5", Guard{Metric: "errs", Relative: true, Ratio: 1.5, Slack: 0.5}},
		{" errs <= 3 ", Guard{Metric: "errs", Max: 3}},
	}
	for _, c := range cases {
		got, err := ParseGuard(c.in)
		if err != nil {
			t.Errorf("ParseGuard(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseGuard(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "noequals", "m<=", "<=5", "m<=abc", "m<=2x-1", "m<=2x+z"} {
		if _, err := ParseGuard(bad); err == nil {
			t.Errorf("ParseGuard(%q) accepted", bad)
		}
	}
	// Round trip: the rendered form re-parses to the same guard.
	for _, c := range cases {
		re, err := ParseGuard(c.want.String())
		if err != nil || re != c.want {
			t.Errorf("ParseGuard(%q) round trip = %+v, %v", c.want.String(), re, err)
		}
	}
}

func TestEvalGuardsAbsolute(t *testing.T) {
	g := []Guard{{Metric: "drops", Max: 5}}
	healthy := map[string]Window{"a": {
		Before: snapAt("a", 0, "drops", 0),
		After:  snapAt("a", time.Second, "drops", 4), // 4/s <= 5
	}}
	if v := EvalGuards(g, healthy, nil); len(v) != 0 {
		t.Errorf("healthy canary violated: %v", v)
	}
	sick := map[string]Window{"a": {
		Before: snapAt("a", 0, "drops", 0),
		After:  snapAt("a", time.Second, "drops", 9), // 9/s > 5
	}}
	v := EvalGuards(g, sick, nil)
	if len(v) != 1 || v[0].Node != "a" || v[0].Rate != 9 || v[0].Limit != 5 {
		t.Fatalf("violations = %+v, want one on a at 9/s vs 5", v)
	}
	if v[0].String() == "" {
		t.Error("violation renders empty")
	}
}

func TestEvalGuardsRelativeAndPlaceholder(t *testing.T) {
	// Per-node counters in a shared registry: the {node} placeholder
	// points each cohort member at its own counter.
	g := []Guard{{Metric: "node.{node}.errs", Relative: true, Ratio: 2, Slack: 1}}
	mk := func(node string, before, after int64) Window {
		return Window{
			Before: Snapshot{MonoNS: 0, Stats: map[string]int64{"node." + node + ".errs": before}},
			After:  Snapshot{MonoNS: int64(time.Second), Stats: map[string]int64{"node." + node + ".errs": after}},
		}
	}
	baseline := map[string]Window{
		"b1": mk("b1", 0, 2), // 2/s
		"b2": mk("b2", 0, 4), // 4/s -> mean 3/s, limit 2*3+1 = 7/s
	}
	if v := EvalGuards(g, map[string]Window{"c": mk("c", 0, 7)}, baseline); len(v) != 0 {
		t.Errorf("canary at the limit violated: %v", v)
	}
	v := EvalGuards(g, map[string]Window{"c": mk("c", 0, 8)}, baseline)
	if len(v) != 1 || v[0].Limit != 7 || v[0].Rate != 8 {
		t.Fatalf("violations = %+v, want one at 8/s vs limit 7/s", v)
	}
	// No baseline: a relative limit degrades to its slack.
	v = EvalGuards(g, map[string]Window{"c": mk("c", 0, 2)}, nil)
	if len(v) != 1 || v[0].Limit != 1 {
		t.Fatalf("baseline-less violations = %+v, want one with limit 1 (the slack)", v)
	}
}

// TestEvalGuardsDeterministic: same snapshots, same verdict, same order
// — the acceptance requirement that decisions are reproducible from
// their inputs.
func TestEvalGuardsDeterministic(t *testing.T) {
	g := []Guard{{Metric: "drops", Max: 1}, {Metric: "reqs", Max: 2}}
	canary := map[string]Window{}
	for _, n := range []string{"z", "a", "m"} {
		canary[n] = Window{
			Before: Snapshot{MonoNS: 0, Stats: map[string]int64{"drops": 0, "reqs": 0}},
			After:  Snapshot{MonoNS: int64(time.Second), Stats: map[string]int64{"drops": 5, "reqs": 5}},
		}
	}
	first := EvalGuards(g, canary, nil)
	if len(first) != 6 {
		t.Fatalf("want 2 guards x 3 nodes = 6 violations, got %d", len(first))
	}
	for i := 0; i < 50; i++ {
		if again := EvalGuards(g, canary, nil); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs: %v vs %v", i, first, again)
		}
	}
}

// TestRunListBounded: past maxRuns the oldest finished run gives way,
// so the list keeps the bound and the newest IDs, while a run still in
// progress survives however old it is. Runs that were all in progress
// at once shrink back to the bound as they finish.
func TestRunListBounded(t *testing.T) {
	c := New(fleet.New(fleet.Config{}))
	unfinished := c.newRun(&CanaryPlan{}) // ID 1
	const extra = 5
	for i := 0; i < maxRuns+extra; i++ {
		c.newRun(&CanaryPlan{}).update(func(v *RunView) { v.Phase = "done" })
	}
	runs := c.Runs()
	if len(runs) != maxRuns {
		t.Fatalf("%d runs kept, want %d", len(runs), maxRuns)
	}
	if runs[0].ID != unfinished.View().ID || runs[0].Phase != "deploying" {
		t.Errorf("oldest kept run = %+v, want the unfinished run 1", runs[0])
	}
	// The finished runs kept are the newest, oldest first: IDs up to
	// 1+maxRuns+extra.
	first := 1 + maxRuns + extra - (maxRuns - 2)
	for i, v := range runs[1:] {
		if v.ID != first+i {
			t.Fatalf("kept run %d has ID %d, want %d", i+1, v.ID, first+i)
		}
	}

	c = New(fleet.New(fleet.Config{}))
	var open []*Run
	for i := 0; i < maxRuns+extra; i++ {
		open = append(open, c.newRun(&CanaryPlan{}))
	}
	if n := len(c.Runs()); n != maxRuns+extra {
		t.Fatalf("%d runs in progress listed, want all %d", n, maxRuns+extra)
	}
	for _, r := range open {
		c.finish(r, &Outcome{Verdict: VerdictRolledBack})
	}
	if runs = c.Runs(); len(runs) != maxRuns {
		t.Errorf("after every run finished: %d runs kept, want %d", len(runs), maxRuns)
	} else if runs[0].ID != extra+1 {
		t.Errorf("after every run finished the oldest kept is run %d, want %d", runs[0].ID, extra+1)
	}
}

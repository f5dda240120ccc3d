package adapt

import (
	"context"
	"strings"
	"testing"
	"time"

	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/obs"
)

// TestAdaptDecisionRecord: each adaptation decision reaches the bus
// exactly once, naming its record and carrying its reason — a promoted
// canary's verdict, and a revoked canary's verdict with the guard it
// violated.
func TestAdaptDecisionRecord(t *testing.T) {
	r := newRig(t, 2)
	r.deployV1(t) // d1
	ctx := context.Background()
	plan := func(version, src string) CanaryPlan {
		return CanaryPlan{
			Spec: fleet.Spec{Version: version, Source: src}, Canary: r.targets[:1], Baseline: r.targets[1:],
			Guards: []Guard{{Metric: "drops", Max: 5}}, Windows: 1, Interval: time.Second,
		}
	}

	// Run a1 stays healthy and promotes (d2 the canary, d3 the promote).
	r.flatline("alpha", 2)
	r.flatline("beta", 2)
	if out, err := r.ctl.Canary(ctx, plan("v2", fwdV2)); err != nil || out.Verdict != VerdictPromoted {
		t.Fatalf("run a1: %+v, %v; want promoted", out, err)
	}
	// Run a2 drops 100 packets in its window and is revoked (d4 the
	// canary, d5 its rollback).
	r.scripts["alpha"].set(snapAt("alpha", time.Second, "drops", 0), snapAt("alpha", 2*time.Second, "drops", 100))
	r.flatline("beta", 2)
	if out, err := r.ctl.Canary(ctx, plan("v3", fwdV1)); err != nil || out.Verdict != VerdictRolledBack {
		t.Fatalf("run a2: %+v, %v; want rolled-back", out, err)
	}
	// Every canary decision, in order, and the fleet's revocation of
	// a2's canary.
	want := []string{
		"canary alpha a1 active: version v2 (canary on 1 of 2 node(s), 1 window(s) of 1s)",
		"canary alpha a1 window:1:ok",
		"canary  a1 promoted: canary v2 healthy for 1 window(s) on alpha",
		"canary alpha a2 active: version v3 (canary on 1 of 2 node(s), 1 window(s) of 1s)",
		"canary alpha a2 window:1:violation",
		"rollback  d5 revoke: version v3 of deployment 4: guard violated in window 1/1: drops<=5 on alpha: 100/s > limit 5/s",
		"rollback  d5 revoked: version v3 on all 1 node(s)",
		"canary  a2 rolled-back: guard violated in window 1/1: drops<=5 on alpha: 100/s > limit 5/s",
	}
	var got []string
	for _, e := range r.ring.Events() {
		if e.Kind == obs.KindCanary || e.Kind == obs.KindRollback && e.Node == "" {
			got = append(got, e.Kind.String()+" "+e.Node+" "+e.Detail)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d decisions, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("decision %d = %q, want %q", i, got[i], w)
		}
	}
}

package testbed

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/fleet"
)

// TestGatewayCrashRedeployE2E is the recovery story on the real-time
// backend: the fleet controller rolls the load-balancing ASP onto the
// live gateway, the gateway node crashes and restarts bare (the chaos
// engine's crash semantics: installed protocol gone, its daemon back
// with empty state), the virtual server goes dark — and a second fleet
// rollout brings service back. This is the wall-clock counterpart of
// the crash scenarios in the netsim robustness suite.
func TestGatewayCrashRedeployE2E(t *testing.T) {
	cluster, err := NewDemo("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()
	eng := cluster.Chaos

	// The daemon's control plane. On node restart the handler is
	// replaced with a fresh one — a restarted daemon remembers nothing
	// about staged or active versions.
	var mu sync.Mutex
	handler := cluster.Handler()
	ctl := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := handler
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer ctl.Close()

	fc := fleet.New(fleet.Config{})
	targets := []fleet.Target{{Name: "gateway", URL: ctl.URL + "/node/gateway"}}
	ctx := context.Background()

	drive := func(base uint16, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			cluster.SendRequest(base + uint16(i))
		}
		if !cluster.Net.Quiesce(10 * time.Second) {
			t.Fatal("cluster did not quiesce")
		}
	}

	// Rollout v1; the cluster balances and masquerades.
	if _, err := fc.Deploy(ctx, fleet.Spec{Version: "v1", Source: asp.HTTPGateway, Verify: "single"}, targets); err != nil {
		t.Fatalf("initial rollout: %v", err)
	}
	drive(20000, 40)
	_, virtualV1 := cluster.Responses()
	if virtualV1 < 30 {
		t.Fatalf("v1 serving: %d virtual-server responses of 40 requests", virtualV1)
	}
	s0, s1 := cluster.Served()
	if s0 == 0 || s1 == 0 {
		t.Fatalf("v1 not balancing: server0=%d server1=%d", s0, s1)
	}

	// Crash the live gateway; it restarts bare and its daemon restarts
	// with it. The protocol is gone, so virtual-server traffic dies at
	// server0 unanswered.
	gw, err := eng.LookupNode("gateway")
	if err != nil {
		t.Fatal(err)
	}
	gw.Crash()
	gw.Restart()
	mu.Lock()
	handler = cluster.Handler()
	mu.Unlock()

	drive(40000, 20)
	_, virtualDark := cluster.Responses()
	if virtualDark != virtualV1 {
		t.Fatalf("virtual server answered %d requests while the gateway was bare", virtualDark-virtualV1)
	}

	// Recovery: a fresh fleet rollout onto the restarted node.
	if _, err := fc.Deploy(ctx, fleet.Spec{Version: "v2", Source: asp.HTTPGateway, Verify: "single"}, targets); err != nil {
		t.Fatalf("recovery rollout: %v", err)
	}
	drive(50000, 40)
	_, virtualV2 := cluster.Responses()
	if virtualV2-virtualDark < 30 {
		t.Fatalf("recovery serving: only %d virtual-server responses after redeploy", virtualV2-virtualDark)
	}
}

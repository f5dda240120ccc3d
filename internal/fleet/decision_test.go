package fleet

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"planp.dev/planp/internal/obs"
)

// TestFleetDecisionRecord: every record-level decision the controller
// makes reaches the bus exactly once, as one event naming its record
// and carrying its reason — a success, a stage failure, an activation
// failure rolled back, a compatibility override, a RollbackDeployment,
// and the history file's corrupt record.
func TestFleetDecisionRecord(t *testing.T) {
	tf := newTestFleet(t, 2)
	path := filepath.Join(t.TempDir(), "deployments.jsonl")
	if err := os.WriteFile(path, []byte("{torn\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(256)
	bus := &obs.Bus{}
	bus.Subscribe(ring)
	c := tf.controller(Config{Bus: bus, HistoryPath: path})
	ctx := context.Background()

	// d1 succeeds; d2 fails its stage on beta; d3 fails its activation
	// on beta and rolls back; d4 drops a variant the peers still send,
	// past the gate; d5 revokes d4.
	if _, err := c.Deploy(ctx, Spec{Version: "v1", Source: gatewayV1}, tf.targets); err != nil {
		t.Fatal(err)
	}
	for i, step := range []string{"/asp/stage", "/asp/activate"} {
		tf.inj.Inject(Fault{
			Method: http.MethodPost, Host: tf.host("beta"), Path: step, Count: 1,
			Action: FaultStatus, Status: http.StatusUnprocessableEntity,
		})
		if _, err := c.Deploy(ctx, Spec{Version: []string{"v2", "v3"}[i], Source: gatewayV1}, tf.targets); err == nil {
			t.Fatalf("deploy with a failing %s succeeded", step)
		}
	}
	d4, err := c.Deploy(ctx, Spec{Version: "v4", Source: gatewayV2DropsVariant, AllowIncompatible: true}, tf.targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RollbackDeployment(ctx, d4, "guard violated in window 1/2: drops"); err != nil {
		t.Fatal(err)
	}

	// The record-level decisions (no node), in order; a trailing "…"
	// matches any error text the reason ends with.
	want := []string{
		"deploy history: " + path + ": skipping corrupt record on line 1: …",
		"deploy d1 start: version v1 to 2 node(s)",
		"deploy d1 active: version v1 on all 2 node(s)",
		"deploy d2 start: version v2 to 2 node(s)",
		"deploy d2 failed: fleet: stage failed on [beta]: …",
		"deploy d3 start: version v3 to 2 node(s)",
		"rollback d3 rolled-back: fleet: activate failed on [beta]; every node is back on its previous version: …",
		"deploy d4 start: version v4 to 2 node(s)",
		"deploy d4 compat:override: proceeding past 2 mismatch(es) on [alpha, beta]",
		"deploy d4 active: version v4 on all 2 node(s)",
		"rollback d5 revoke: version v4 of deployment 4: guard violated in window 1/2: drops",
		"rollback d5 revoked: version v4 on all 2 node(s)",
	}
	var got []string
	for _, e := range ring.Events() {
		if e.Node == "" {
			got = append(got, e.Kind.String()+" "+e.Detail)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d record-level decisions, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if prefix, ok := strings.CutSuffix(w, "…"); ok && strings.HasPrefix(got[i], prefix) || got[i] == w {
			continue
		}
		t.Errorf("decision %d = %q, want %q", i, got[i], w)
	}

	// Each node's steps name their record too.
	for _, e := range ring.Events() {
		if e.Node != "" && !strings.HasPrefix(e.Detail, "d") {
			t.Errorf("%s event on %s has no record: %q", e.Kind, e.Node, e.Detail)
		}
	}
}

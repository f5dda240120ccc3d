package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"planp.dev/planp/internal/obs"
)

// gatewayV1 is the running fleet's protocol: a gateway channel with two
// packet variants (plain and tagged) and a network channel that routes
// tagged traffic to the gateway. Its signature therefore records a send
// of ip*udp*char*blob to gateway.
const gatewayV1 = `
channel gateway(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps + 1, ss))

channel gateway(ps : int, ss : unit, p : ip*udp*char*blob) is
  (deliver(p); (ps + 1, ss))

channel network(ps : int, ss : unit, p : ip*udp*char*blob) is
  (OnRemote(gateway, p); (ps, ss))
`

// gatewayV2DropsVariant drops the tagged gateway variant that v1 peers
// still send: a breaking upgrade the compatibility gate must reject.
// The gateway header sits on line 2 of the source.
const gatewayV2DropsVariant = `channel gateway(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps + 2, ss))

channel network(ps : int, ss : unit, p : ip*udp*char*blob) is
  (deliver(p); (ps, ss))
`

// gatewayV1Base is a reduced running protocol whose gateway only knows
// the plain variant and that never sends.
const gatewayV1Base = `
channel gateway(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps + 1, ss))
`

// gatewayV2NewSend is self-consistent but introduces a send of the
// tagged variant, which a peer still running gatewayV1Base cannot
// dispatch — the gate must reject it at the send site.
const gatewayV2NewSend = `
channel gateway(ps : int, ss : unit, p : ip*udp*blob) is
  (deliver(p); (ps + 1, ss))

channel gateway(ps : int, ss : unit, p : ip*udp*char*blob) is
  (deliver(p); (ps + 1, ss))

channel network(ps : int, ss : unit, p : ip*udp*char*blob) is
  (OnRemote(gateway, p); (ps, ss))
`

// TestFleetCompatGateRejectsDroppedVariant is the acceptance scenario:
// staging an ASP whose gateway channel drops a message variant a running
// peer still sends is rejected at stage time, with a diagnostic naming
// the staged source's file and line, and no node is touched.
func TestFleetCompatGateRejectsDroppedVariant(t *testing.T) {
	tf := newTestFleet(t, 3)
	bus := &obs.Bus{}
	events := newEventCounter(bus)
	c := tf.controller(Config{Bus: bus})

	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: gatewayV1}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}

	d, err := c.Deploy(context.Background(), Spec{
		Version: "v2", Source: gatewayV2DropsVariant, SourceName: "gateway_v2.planp",
	}, tf.targets)
	if err == nil {
		t.Fatal("dropping a variant a running peer still sends must be rejected")
	}
	var ce *CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CompatError: %v", err, err)
	}
	if len(ce.Nodes) != 3 {
		t.Errorf("gate flagged %d nodes, want all 3: %v", len(ce.Nodes), ce.Nodes)
	}
	// The rejection names the staged source's file and line: the dropped
	// variant is reported at the staged gateway channel's header (line 1
	// of gatewayV2DropsVariant).
	if !strings.Contains(err.Error(), "gateway_v2.planp:1:1:") {
		t.Errorf("rejection does not name the offending source line:\n%v", err)
	}
	if !strings.Contains(err.Error(), "ip*udp*char*blob") {
		t.Errorf("rejection does not name the dropped packet variant:\n%v", err)
	}
	// The diagnostics survive errors.As-style extraction for rendering.
	if ds := ce.Diagnostics(); len(ds) == 0 || !ds[0].Pos.IsValid() {
		t.Errorf("CompatError carries no span diagnostics: %+v", ds)
	}

	if got := d.State(); got != StateFailed {
		t.Errorf("deployment state = %s, want Failed", got)
	}
	// Rejected before phase 1: nothing was staged anywhere, every node
	// still runs v1.
	for _, tgt := range tf.targets {
		active, staged := tf.nodeState(t, tgt.Name)
		if active != "v1" || staged != "" {
			t.Errorf("node %s: active %q staged %q, want v1 untouched", tgt.Name, active, staged)
		}
	}
	if got := events.count("deploy:compat:mismatch"); got != 3 {
		t.Errorf("deploy:compat:mismatch events = %d, want 3", got)
	}
	if got := events.count("deploy:stage:ok"); got != 3 {
		t.Errorf("deploy:stage:ok events = %d, want 3 (baseline only)", got)
	}
}

// TestFleetCompatGateRejectsNewSend covers the other direction of the
// mixed-version window: the staged program emits a packet variant the
// running peers cannot dispatch. The rejection is anchored at the send
// site in the staged source.
func TestFleetCompatGateRejectsNewSend(t *testing.T) {
	tf := newTestFleet(t, 2)
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: gatewayV1Base}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	_, err := c.Deploy(context.Background(), Spec{
		Version: "v2", Source: gatewayV2NewSend, SourceName: "gateway_v2.planp",
	}, tf.targets)
	if err == nil {
		t.Fatal("a send no running peer can receive must be rejected")
	}
	var ce *CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CompatError: %v", err, err)
	}
	// The OnRemote(gateway, p) send sits on line 9 of gatewayV2NewSend.
	if !strings.Contains(err.Error(), "gateway_v2.planp:9:4:") {
		t.Errorf("rejection does not point at the send site:\n%v", err)
	}
}

// TestFleetCompatOverride: the same breaking rollout with the override
// set proceeds — and both the live record and the persisted history
// carry the override flag and the gate's findings.
func TestFleetCompatOverride(t *testing.T) {
	histPath := filepath.Join(t.TempDir(), "history.jsonl")
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{HistoryPath: histPath})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: gatewayV1}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	d, err := c.Deploy(context.Background(), Spec{
		Version: "v2", Source: gatewayV2DropsVariant,
		SourceName: "gateway_v2.planp", AllowIncompatible: true,
	}, tf.targets)
	if err != nil {
		t.Fatalf("override deploy: %v", err)
	}
	if got := d.State(); got != StateActive {
		t.Fatalf("deployment state = %s, want Active", got)
	}
	for _, tgt := range tf.targets {
		if active, _ := tf.nodeState(t, tgt.Name); active != "v2" {
			t.Errorf("node %s runs %q, want v2", tgt.Name, active)
		}
	}
	v := d.View()
	if !v.CompatOverride {
		t.Error("override rollout not marked CompatOverride")
	}
	if len(v.CompatWarnings) == 0 || !strings.Contains(v.CompatWarnings[0], "gateway_v2.planp:1:1:") {
		t.Errorf("gate findings not recorded: %v", v.CompatWarnings)
	}

	// The persisted history record carries the same evidence.
	raw, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("history has %d records, want 2", len(lines))
	}
	var rec View
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.CompatOverride || len(rec.CompatWarnings) == 0 {
		t.Errorf("persisted record lost the override evidence: %+v", rec)
	}
}

// TestSigDiffSameLabelTwoPrograms: each daemon's controller numbers its
// own version labels, so two peers can report the same label for
// different programs. The recorded diff shows a block for each, named by
// the peers that run it, and reads the same on every rollout.
func TestSigDiffSameLabelTwoPrograms(t *testing.T) {
	tf := newTestFleet(t, 2)
	for i, src := range []string{gatewayV1, gatewayV1Base} {
		c := tf.controller(Config{})
		if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: src}, tf.targets[i:i+1]); err != nil {
			t.Fatalf("baseline deploy to %s: %v", tf.targets[i].Name, err)
		}
	}
	want := []string{
		"vs v1 (alpha): - receive gateway(ip*udp*char*blob)",
		"vs v1 (alpha): - send gateway(ip*udp*char*blob)",
		"vs v1 (beta): + receive network(ip*udp*char*blob)",
	}
	c := tf.controller(Config{})
	for i := 0; i < 20; i++ {
		// alpha's v1 still sends the variant v2 drops: the gate rejects
		// before anything is staged, so every round sees the same peers.
		d, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: gatewayV2DropsVariant}, tf.targets)
		var ce *CompatError
		if !errors.As(err, &ce) || !slices.Equal(ce.Nodes, []string{"alpha"}) {
			t.Fatalf("round %d: err = %v, want a CompatError on [alpha]", i, err)
		}
		if got := d.View().SigDiff; !slices.Equal(got, want) {
			t.Fatalf("round %d: SigDiff = %q, want %q", i, got, want)
		}
	}
}

// eventCounter tallies bus events by kind:step, the step being the
// Detail without its record prefix and reason.
type eventCounter struct {
	mu  sync.Mutex
	got map[string]int
}

// step strips a decision's Detail to its step: without the record
// prefix ("d3 ", "a1 ") and without the ": <reason>" tail.
func step(detail string) string {
	if ref, rest, ok := strings.Cut(detail, " "); ok && len(ref) > 1 && strings.Trim(ref[1:], "0123456789") == "" {
		detail = rest
	}
	s, _, _ := strings.Cut(detail, ": ")
	return s
}

func newEventCounter(bus *obs.Bus) *eventCounter {
	ec := &eventCounter{got: map[string]int{}}
	bus.Subscribe(obs.Func(func(e obs.Event) {
		ec.mu.Lock()
		ec.got[e.Kind.String()+":"+step(e.Detail)]++
		ec.mu.Unlock()
	}))
	return ec
}

func (ec *eventCounter) count(key string) int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.got[key]
}

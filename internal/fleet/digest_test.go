package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
)

// forwarderAdmin adds a receive-only channel to forwarder: a different
// signature (and digest) that either program can roll out over.
const forwarderAdmin = forwarder + `
channel admin(ps : int, ss : unit, p : ip*udp*int) is
  (deliver(p); (ps, ss))
`

// probe is one GET /healthz as the node saw it: the digest the
// controller named, and what the answer carried.
type probe struct {
	named     string // ?signature=, "" when absent
	signature bool   // the answer carried the signature
	digest    string // the answer's signature_digest
}

// healthTap sits in front of one node's planpd handler. It records
// every health probe and can rewrite the answer: predates makes the
// node a daemon from before digests (it ignores ?signature= and sends
// no signature_digest); unknown answers the next that many probes with
// a digest the controller cannot hold and no signature (-1: every
// probe); forged keeps a full answer's signature under a digest that is
// not its own.
type healthTap struct {
	h http.Handler

	mu       sync.Mutex
	probes   []probe
	predates bool
	unknown  int
	forged   bool
}

func (ht *healthTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/healthz" {
		ht.h.ServeHTTP(w, r)
		return
	}
	ht.mu.Lock()
	defer ht.mu.Unlock()
	p := probe{named: r.URL.Query().Get("signature")}
	if ht.predates {
		r.URL.RawQuery = ""
	}
	rec := httptest.NewRecorder()
	ht.h.ServeHTTP(rec, r)
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	switch {
	case ht.predates:
		delete(body, "signature_digest")
	case ht.unknown != 0:
		ht.unknown--
		delete(body, "signature")
		body["signature_digest"] = json.RawMessage(`"ffffffffffffffffffffffffffffffff"`)
	case ht.forged && body["signature"] != nil:
		body["signature_digest"] = json.RawMessage(`"ffffffffffffffffffffffffffffffff"`)
	}
	_, p.signature = body["signature"]
	json.Unmarshal(body["signature_digest"], &p.digest)
	ht.probes = append(ht.probes, p)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// take returns the probes recorded since the last take.
func (ht *healthTap) take() []probe {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	ps := ht.probes
	ht.probes = nil
	return ps
}

func (ht *healthTap) set(f func(ht *healthTap)) {
	ht.mu.Lock()
	f(ht)
	ht.mu.Unlock()
}

// tap puts a healthTap in front of the named node.
func (tf *testFleet) tap(name string) *healthTap {
	s := tf.servers[name]
	s.mu.Lock()
	defer s.mu.Unlock()
	ht := &healthTap{h: s.h}
	s.h = ht
	return ht
}

// TestFleetProbeNamesHeldSignature: after a rollout the controller
// holds the version it activated, so the next probe names it by digest
// and the node answers without the signature; the gate reads the same.
func TestFleetProbeNamesHeldSignature(t *testing.T) {
	tf := newTestFleet(t, 2)
	taps := []*healthTap{tf.tap("alpha"), tf.tap("beta")}
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: gatewayV1}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	for _, ht := range taps {
		if ps := ht.take(); len(ps) != 1 || ps[0].named != "" || ps[0].digest != "" {
			t.Fatalf("bare node probe: %+v, want one probe naming nothing", ps)
		}
	}
	_, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: gatewayV2DropsVariant}, tf.targets)
	var ce *CompatError
	if !errors.As(err, &ce) || !slices.Equal(ce.Nodes, []string{"alpha", "beta"}) {
		t.Fatalf("err = %v, want a CompatError on [alpha beta]", err)
	}
	for _, ht := range taps {
		ps := ht.take()
		if len(ps) != 1 || ps[0].named == "" || ps[0].signature || ps[0].digest != ps[0].named {
			t.Errorf("probe after activation: %+v, want one digest-only answer naming the held digest", ps)
		}
	}
}

// TestFleetCompatPreDigestNode: a node whose daemon predates digests
// ignores ?signature= and names no digest; it gets today's full
// exchange, and a mismatch against it is still rejected.
func TestFleetCompatPreDigestNode(t *testing.T) {
	tf := newTestFleet(t, 3)
	old := tf.tap("beta")
	old.set(func(ht *healthTap) { ht.predates = true })
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: gatewayV1}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	old.take()
	_, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: gatewayV2DropsVariant}, tf.targets)
	var ce *CompatError
	if !errors.As(err, &ce) || !slices.Equal(ce.Nodes, []string{"alpha", "beta", "gamma"}) {
		t.Fatalf("err = %v, want a CompatError on [alpha beta gamma]", err)
	}
	ps := old.take()
	if len(ps) != 1 || ps[0].named == "" || !ps[0].signature || ps[0].digest != "" {
		t.Errorf("pre-digest node's probe: %+v, want one full answer without a digest", ps)
	}
}

// TestFleetCompatChangedBehindControllersBack: a program activated on a
// node by someone else changes its signature; the digest the controller
// holds no longer names it, so the node sends the new signature and the
// gate judges that.
func TestFleetCompatChangedBehindControllersBack(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: gatewayV1Base}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	// gatewayV1 sends the tagged variant gatewayV2DropsVariant drops; the
	// base version sends nothing, so only alpha now conflicts.
	alpha := tf.targets[0].URL
	for _, step := range []string{"/asp/stage?version=hotfix", "/asp/activate?version=hotfix"} {
		resp, err := http.Post(alpha+step, "text/plain", strings.NewReader(gatewayV1))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: HTTP %d", step, resp.StatusCode)
		}
	}
	_, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: gatewayV2DropsVariant}, tf.targets)
	var ce *CompatError
	if !errors.As(err, &ce) || !slices.Equal(ce.Nodes, []string{"alpha"}) {
		t.Fatalf("err = %v, want a CompatError on [alpha]", err)
	}
}

// TestFleetUnknownDigestReaskedOnce: a digest-only answer naming a
// signature the controller does not hold is asked again without the
// digest, exactly once. A full second answer feeds the gate; a second
// digest-only answer fails the probe.
func TestFleetUnknownDigestReaskedOnce(t *testing.T) {
	tf := newTestFleet(t, 1)
	ht := tf.tap("alpha")
	c := tf.controller(Config{})
	if _, err := c.Deploy(context.Background(), Spec{Version: "v1", Source: gatewayV1}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	ht.take()

	ht.set(func(ht *healthTap) { ht.unknown = 1 })
	_, err := c.Deploy(context.Background(), Spec{Version: "v2", Source: gatewayV2DropsVariant}, tf.targets)
	var ce *CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a CompatError from the re-asked signature", err)
	}
	ps := ht.take()
	if len(ps) != 2 || ps[0].named == "" || ps[0].signature || ps[1].named != "" || !ps[1].signature {
		t.Errorf("probes = %+v, want a digest-only answer, then one full answer to a probe naming nothing", ps)
	}

	ht.set(func(ht *healthTap) { ht.unknown = -1 })
	_, err = c.Deploy(context.Background(), Spec{Version: "v3", Source: gatewayV1}, tf.targets)
	if err == nil || !strings.Contains(err.Error(), "sends none") {
		t.Fatalf("err = %v, want a health failure: the node names a signature it never sends", err)
	}
	if ps := ht.take(); len(ps) != 2 || ps[1].named != "" {
		t.Errorf("probes = %+v, want exactly one re-ask, naming nothing", ps)
	}
}

// TestFleetRefusesSelfContradictingHealth: a full health answer whose
// digest is not its signature's fails the probe with an error naming
// the node, and nothing is held for it: the next probe names no digest,
// so a later digest-only answer cannot stand in for the forged pair.
func TestFleetRefusesSelfContradictingHealth(t *testing.T) {
	tf := newTestFleet(t, 1)
	ht := tf.tap("alpha")
	ctx := context.Background()
	if _, err := tf.controller(Config{}).Deploy(ctx, Spec{Version: "v1", Source: gatewayV1}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	ht.set(func(ht *healthTap) { ht.forged = true })
	ht.take()

	c := tf.controller(Config{}) // holds nothing: its first probe gets a full answer
	_, err := c.Deploy(ctx, Spec{Version: "v2", Source: gatewayV1}, tf.targets)
	if err == nil || !strings.Contains(err.Error(), "node alpha") || !strings.Contains(err.Error(), "ffffffffffffffffffffffffffffffff") {
		t.Fatalf("err = %v, want a health failure naming alpha and the forged digest", err)
	}
	if ps := ht.take(); len(ps) != 1 || ps[0].named != "" || !ps[0].signature {
		t.Fatalf("probes = %+v, want one full answer to a probe naming nothing", ps)
	}

	ht.set(func(ht *healthTap) { ht.forged = false })
	if _, err := c.Deploy(ctx, Spec{Version: "v2", Source: gatewayV1}, tf.targets); err != nil {
		t.Fatalf("deploy after an honest answer: %v", err)
	}
	if ps := ht.take(); len(ps) != 1 || ps[0].named != "" {
		t.Errorf("probes = %+v, want one probe naming no digest: the forged one was not held", ps)
	}
}

// TestFleetConcurrentDeploysSharedTargets: rollouts on many goroutines
// over overlapping target sets share the controller's held signatures.
// Whatever each rollout's outcome, its record agrees with its error, and
// afterwards the gate judges every node by what it runs.
func TestFleetConcurrentDeploysSharedTargets(t *testing.T) {
	tf := newTestFleet(t, 3)
	c := tf.controller(Config{})
	ctx := context.Background()
	if _, err := c.Deploy(ctx, Spec{Version: "base", Source: forwarder}, tf.targets); err != nil {
		t.Fatalf("baseline deploy: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			targets := slices.Delete(slices.Clone(tf.targets), 1+g%2, 2+g%2) // alpha plus one other
			if g == 0 {
				targets = tf.targets
			}
			for i := 0; i < 3; i++ {
				src := forwarder
				if (g+i)%2 == 1 {
					src = forwarderAdmin
				}
				d, err := c.Deploy(ctx, Spec{Version: fmt.Sprintf("g%d-%d", g, i), Source: src}, targets)
				if st := d.State(); (err == nil) != (st == StateActive) {
					t.Errorf("g%d-%d: state %s, err %v", g, i, st, err)
				}
			}
		}()
	}
	wg.Wait()

	// Every node runs one of the two forwarders; neither defines the
	// gateway channel gatewayV1 sends to.
	_, err := c.Deploy(ctx, Spec{Version: "gw", Source: gatewayV1}, tf.targets)
	var ce *CompatError
	if !errors.As(err, &ce) || !slices.Equal(ce.Nodes, []string{"alpha", "beta", "gamma"}) {
		t.Fatalf("err = %v, want a CompatError on [alpha beta gamma]", err)
	}
	if _, err := c.Deploy(ctx, Spec{Version: "final", Source: forwarderAdmin}, tf.targets); err != nil {
		t.Fatalf("final deploy: %v", err)
	}
}

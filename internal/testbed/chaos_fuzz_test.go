package testbed

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"planp.dev/planp/internal/chaos"
)

// FuzzChaosStage posts what arrives off the network to POST
// /chaos/stage on the demo daemon (built, not started), so a timeline
// is compiled against a live topology's wiring: duplex links named
// after demo.json's links, its four nodes adopted on a backend that can
// skew clocks. The contract: no body is a 5xx or a panic; a body is
// staged (200) exactly when ParseTimeline accepts it, it has a name, and
// the daemon's engine compiles it; a 200 reports the body's step count;
// and the same body gets the same answer twice.
func FuzzChaosStage(f *testing.F) {
	for _, seed := range []string{
		`{"name": "cut", "steps": [{"at_ms": 0, "op": "down", "link": "gateway-server0"}]}`,
		`{"name": "partition-and-heal", "steps": [
			{"at_ms": 0,    "op": "loss", "link": "gateway-server0", "p": 0.9, "dir": "fwd"},
			{"at_ms": 2000, "op": "partition", "links": ["gateway-server0", "client-gateway:rev"]},
			{"at_ms": 5000, "op": "heal"},
			{"at_ms": 5000, "op": "clockskew", "node": "server0", "skew_ms": 250}]}`,
		`{"name": "crash", "steps": [{"at_ms": 10, "op": "crash", "node": "gateway"},
			{"at_ms": 20, "op": "restart", "node": "gateway"}, {"op": "flap", "link": "gateway-server1", "dur_ms": 5}]}`,
		`{"steps": [{"op": "down", "link": "gateway-server0"}]}`,
		`{"name": "x", "steps": [{"op": "down", "link": "gw-s0"}]}`,
		`{"name": "x", "steps": [{"op": "down", "link": "gateway-server0", "dir": "up"}]}`,
		`{"name": "x", "steps": [{"op": "crash", "node": "router"}]}`,
		`{"name": "x", "steps": [{"op": "dup", "link": "client-gateway", "p": -1}]}`,
		`{"name": "x", "steps": [{"at_ms": 9223372036855, "op": "up", "link": "client-gateway"}]}`,
		`{"name": "x", "steps": []}`,
		`{"name": "x", "steps": [{"op": "down", "link": "client-gateway"}]} trailing`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}

	topo, err := ParseTopology(demoJSON)
	if err != nil {
		f.Fatal(err)
	}
	d, err := NewDaemon(topo, topo.Daemons[0].Name, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(d.Close)
	h := d.Handler()

	stage := func(b []byte) (int, []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/chaos/stage", bytes.NewReader(b)))
		return w.Code, w.Body.Bytes()
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		code, body := stage(b)
		if code >= 500 {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if again, againBody := stage(b); again != code || !bytes.Equal(againBody, body) {
			t.Fatalf("same body, different answers:\nHTTP %d %s\nHTTP %d %s", code, body, again, againBody)
		}

		tl, err := chaos.ParseTimeline(b)
		if err == nil && tl.Name != "" {
			_, err = d.Chaos.Compile(tl)
		}
		accepted := err == nil && tl.Name != ""
		if accepted != (code == http.StatusOK) {
			t.Fatalf("HTTP %d %s, but parse + compile say accepted=%v (%v)", code, body, accepted, err)
		}
		if !accepted {
			return
		}
		var staged struct {
			Staged string `json:"staged"`
			Steps  int    `json:"steps"`
		}
		if err := json.Unmarshal(body, &staged); err != nil {
			t.Fatalf("200 answer is not JSON: %v\n%s", err, body)
		}
		if staged.Staged != tl.Name || staged.Steps != len(tl.Steps) {
			t.Fatalf("staged %q with %d steps, body names %q with %d", staged.Staged, staged.Steps, tl.Name, len(tl.Steps))
		}
	})
}

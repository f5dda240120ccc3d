package planpd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/planprt"
)

// TestWireContract drives one node bare → staged → active → upgraded →
// rolled back and pins the exact set of JSON field names in every
// route's 200 and 422 body. The table was written from the output of
// the map-literal handlers the named response structs replaced: a
// mixed-version fleet (and bench/) speaks these names, so a change here
// is a protocol change, not a refactor. An active node's /healthz also
// names its signature by digest, and leaves the signature out for a
// probe that names the same digest.
func TestWireContract(t *testing.T) {
	_, base := stageNode(t)
	prog, err := planprt.Load(stageForwarder, planprt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	current, stale := prog.Signature().Digest(), "00000000000000000000000000000000"
	const (
		health    = "asp node ok version"
		healthASP = "asp node ok signature signature_digest version"
		status    = "active asp node prev staged"
		statusASP = "active asp node prev signature staged"
		stats     = "mono_ns node stats"
	)
	for _, step := range []struct {
		name, method, path, body string
		code                     int
		fields                   string // sorted, space-separated; "" = a plain-text body
	}{
		{"bare", "GET", "/healthz", "", 200, health},
		{"bare", "GET", "/asp", "", 200, status},
		{"bare", "GET", "/stats", "", 200, stats},
		{"bare: rollback is a no-op", "POST", "/asp/rollback?version=v1", "", 200, "active node rolledback"},
		{"bare: abort is a no-op", "DELETE", "/asp/stage", "", 200, "node staged"},
		{"bare: nothing to withdraw", "DELETE", "/asp", "", 404, ""},

		{"stage rejected", "POST", "/asp/stage?version=v1", "val a : int = true\n" + stageForwarder, 422, "diagnostics error"},
		{"stage", "POST", "/asp/stage?version=v1", stageForwarder, 200, "engine node signature staged version"},
		{"staged", "GET", "/healthz", "", 200, health},
		{"staged", "GET", "/asp", "", 200, status},
		{"staged: not this version", "POST", "/asp/activate?version=v9", "", 409, ""},

		{"activate", "POST", "/asp/activate?version=v1", "", 200, "active node previous version"},
		{"activate replayed", "POST", "/asp/activate?version=v1", "", 200, "active node version"},
		{"active", "GET", "/healthz", "", 200, healthASP},
		{"active: probe names the signature", "GET", "/healthz?signature=" + current, "", 200, "asp node ok signature_digest version"},
		{"active: probe names a stale signature", "GET", "/healthz?signature=" + stale, "", 200, healthASP},
		{"active", "GET", "/asp", "", 200, statusASP},
		{"active", "GET", "/stats", "", 200, stats},
		{"active: one-shot install refused", "POST", "/asp", stageForwarderV2, 409, ""},
		// The program is judged before the node's occupancy is (Load runs
		// outside the server's lock); the parent answered 409 here.
		{"active: broken one-shot install", "POST", "/asp", "fun broken( : int = nonsense", 422, "diagnostics error"},

		{"stage v2", "POST", "/asp/stage?version=v2", stageForwarderV2, 200, "engine node signature staged version"},
		{"upgrade", "POST", "/asp/activate?version=v2", "", 200, "active node previous version"},
		{"upgraded", "GET", "/asp", "", 200, statusASP},

		{"rollback", "POST", "/asp/rollback?version=v2", "", 200, "active node rolledback"},
		{"rollback replayed", "POST", "/asp/rollback?version=v2", "", 200, "active node rolledback"},
		{"rolled back", "GET", "/healthz", "", 200, healthASP},
		{"rolled back", "GET", "/asp", "", 200, statusASP},

		{"withdraw", "DELETE", "/asp", "", 200, "installed node"},
		{"install rejected", "POST", "/asp", "fun broken( : int = nonsense", 422, "diagnostics error"},
		{"install", "POST", "/asp?version=v3", stageForwarder, 200, "engine installed node version"},
		{"installed", "GET", "/asp", "", 200, statusASP},
	} {
		code, raw := rawCall(t, step.method, base+step.path, step.body)
		if code != step.code {
			t.Fatalf("%s: %s %s: HTTP %d, want %d (%s)", step.name, step.method, step.path, code, step.code, raw)
		}
		var body map[string]json.RawMessage
		if err := json.Unmarshal(raw, &body); err != nil {
			if step.fields != "" {
				t.Errorf("%s: %s %s: body is not a JSON object: %q", step.name, step.method, step.path, raw)
			}
			continue
		}
		names := make([]string, 0, len(body))
		for name := range body {
			names = append(names, name)
		}
		slices.Sort(names)
		if got := strings.Join(names, " "); got != step.fields {
			t.Errorf("%s: %s %s: fields [%s], want [%s]", step.name, step.method, step.path, got, step.fields)
		}
	}

	// The values a fleet controller acts on, at the end of the walk.
	if active, staged, prev := aspState(t, base); active != "v3" || staged != "" || prev != "" {
		t.Errorf("end state: active=%q staged=%q prev=%q", active, staged, prev)
	}
}

// TestWriteJSONCarriesLength: an answer carries its Content-Length, so
// a reader that is handed it without net/http's server between (a
// ResponseRecorder, as in the deploy benchmark's in-process transport)
// allocates the body once; the bytes are json.Encoder's, newline and all.
func TestWriteJSONCarriesLength(t *testing.T) {
	_, err := planprt.Load(`channel network(ps : int, ss : unit, p : ip*udp*blob) is (deliver(p); (ps + true, ss))`, planprt.Config{})
	if err == nil {
		t.Fatal("an ill-typed program loads")
	}
	for _, tc := range []struct {
		write func(http.ResponseWriter)
		v     any
	}{
		{func(w http.ResponseWriter) { WriteJSON(w, http.StatusOK, Staged{Staged: true, Version: "v<1>"}) }, Staged{Staged: true, Version: "v<1>"}},
		{func(w http.ResponseWriter) { writeReject(w, "stage rejected", err) }, Reject{Error: "stage rejected", Diagnostics: diag.Of(err)}},
	} {
		rec := httptest.NewRecorder()
		tc.write(rec)
		res := rec.Result()
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(tc.v)
		if body := rec.Body.Bytes(); !bytes.Equal(body, want.Bytes()) || res.ContentLength != int64(len(body)) {
			t.Errorf("HTTP %d: Content-Length %d, body %q (%d bytes); want body %q", res.StatusCode, res.ContentLength, body, len(body), want.Bytes())
		}
	}
}

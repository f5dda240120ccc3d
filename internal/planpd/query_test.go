package planpd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"planp.dev/planp/asp"
	"planp.dev/planp/internal/netsim"
)

// FuzzQueryValue: for any raw query and key, QueryValue reads what
// url.ParseQuery(raw).Get(key) reads. The corpus under
// testdata/fuzz/FuzzQueryValue holds a ';' pair, a bad escape, a '+',
// repeated and empty keys, '=' inside a value and an escaped key.
func FuzzQueryValue(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, key string) {
		all, _ := url.ParseQuery(raw)
		if got, want := QueryValue(raw, key), all.Get(key); got != want {
			t.Fatalf("QueryValue(%q, %q) = %q, url.ParseQuery reads %q", raw, key, got, want)
		}
	})
}

// TestHealthProbeAllocs pins what the fleet's routine probe costs the
// node: a GET /healthz naming the active signature's digest, served into
// a fresh recorder. The digest is the compiled program's, computed once,
// and the query is read without a map.
func TestHealthProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	h := NewServer(netsim.NewNode(netsim.New(netsim.WithSeed(1)), "gw", netsim.Addr(0x0A000001)), nil).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/asp?verify=single&version=v1", strings.NewReader(asp.HTTPGateway)))
	if rec.Code != http.StatusOK {
		t.Fatalf("installing the gateway ASP: HTTP %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var full Health
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil || full.SignatureDigest == "" {
		t.Fatalf("health of the active node names no digest (%v): %s", err, rec.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz?signature="+full.SignatureDigest, nil)
	n := testing.AllocsPerRun(100, func() {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	})
	var got Health
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Signature != nil || got.SignatureDigest != full.SignatureDigest {
		t.Fatalf("a probe naming the active digest got %s (%v), want the digest alone", rec.Body, err)
	}
	if n > maxProbeAllocs {
		t.Errorf("a digest-only probe allocates %v times, want at most %d", n, maxProbeAllocs)
	}
}

// maxProbeAllocs is what a digest-only probe allocates, recorder
// included. Reading the query through url.ParseQuery's map adds three.
const maxProbeAllocs = 12

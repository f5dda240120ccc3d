package planpd

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/routetest"
)

func TestServerRoutesRefuseOtherMethods(t *testing.T) {
	sim := netsim.New(netsim.WithSeed(1))
	node := netsim.NewNode(sim, "n0", netsim.Addr(0x0A000001))
	routetest.RefusesOtherMethods(t, NewServer(node, nil).Handler(), map[string][]string{
		"/asp":          {"GET", "POST", "DELETE"},
		"/asp/stage":    {"POST", "DELETE"},
		"/asp/activate": {"POST"},
		"/asp/rollback": {"POST"},
		"/stats":        {"GET"},
		"/healthz":      {"GET"},
	})
}

func TestChaosRoutesRefuseOtherMethods(t *testing.T) {
	eng := chaos.New(netsim.New(netsim.WithSeed(1)), 1)
	routetest.RefusesOtherMethods(t, NewChaosServer(eng).Handler(), map[string][]string{
		"/chaos/stage":  {"POST"},
		"/chaos/start":  {"POST"},
		"/chaos/stop":   {"POST"},
		"/chaos/status": {"GET"},
	})
}

// TestReadBodyLimit: a body of exactly the limit is read whole; one
// byte more is a 413, whichever route asked.
func TestReadBodyLimit(t *testing.T) {
	for _, tc := range []struct {
		size, want int
	}{{8, http.StatusOK}, {9, http.StatusRequestEntityTooLarge}} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/", strings.NewReader(strings.Repeat("x", tc.size)))
		if body, ok := ReadBody(rec, req, 8); ok != (tc.want == http.StatusOK) || ok && len(body) != tc.size {
			t.Errorf("%d bytes under a limit of 8: ok=%v, %d bytes read", tc.size, ok, len(body))
		}
		if rec.Code != tc.want {
			t.Errorf("%d bytes under a limit of 8: status %d, want %d", tc.size, rec.Code, tc.want)
		}
	}
}

// Package routetest is the one check every control-plane mux's test
// runs over its route table.
package routetest

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// RefusesOtherMethods asserts that every route of h — path → the
// methods it registers — answers each other method with 405 and an
// Allow header naming the registered ones. The mutating verbs of a mux
// are then exactly its non-GET patterns.
func RefusesOtherMethods(t *testing.T, h http.Handler, routes map[string][]string) {
	t.Helper()
	for path, allowed := range routes {
		for _, method := range []string{"GET", "POST", "PUT", "DELETE"} {
			if slices.Contains(allowed, method) {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: %d, want 405", method, path, rec.Code)
			}
			for _, a := range allowed {
				if allow := rec.Header().Get("Allow"); !strings.Contains(allow, a) {
					t.Errorf("%s %s: Allow %q does not name %s", method, path, allow, a)
				}
			}
		}
	}
}

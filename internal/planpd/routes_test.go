package planpd

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/routetest"
	"planp.dev/planp/internal/substrate"
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
	sim := netsim.New(netsim.WithSeed(1))
	b, err := netsim.Build(sim, &substrate.Topology{})
	if err != nil {
		t.Fatal(err)
	}
	eng := chaos.New(sim, &substrate.Topology{}, b.Built, 1)
	routetest.RefusesOtherMethods(t, NewChaosServer(eng).Handler(), map[string][]string{
		"/chaos/stage":  {"POST"},
		"/chaos/start":  {"POST"},
		"/chaos/stop":   {"POST"},
		"/chaos/status": {"GET"},
	})
}

// TestReadBodyLimit: a body of exactly the limit is read whole, with a
// Content-Length or chunked; one byte more is a 413, whichever route
// asked, and so is a declared length over the limit before anything is
// read; a body short of its Content-Length is a 400.
func TestReadBodyLimit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		size     int   // bytes sent
		declared int64 // Content-Length; -1: chunked
		want     int
	}{
		{"at the limit", 8, 8, http.StatusOK},
		{"over the limit", 9, 9, http.StatusRequestEntityTooLarge},
		{"declared over the limit", 4, 100, http.StatusRequestEntityTooLarge},
		{"short of its Content-Length", 4, 8, http.StatusBadRequest},
		{"chunked, at the limit", 8, -1, http.StatusOK},
		{"chunked, over the limit", 9, -1, http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/", strings.NewReader(strings.Repeat("x", tc.size)))
		req.ContentLength = tc.declared
		if body, ok := ReadBody(rec, req, 8); ok != (tc.want == http.StatusOK) || ok && len(body) != tc.size {
			t.Errorf("%s: ok=%v, %d bytes read", tc.name, ok, len(body))
		}
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

// TestReadBodyOnTheWire: the same answers from a real server, to a
// client that sends fewer bytes than its Content-Length and then closes
// its side, and to one that sends its body chunked.
func TestReadBodyOnTheWire(t *testing.T) {
	var declared atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		declared.Store(r.ContentLength)
		if body, ok := ReadBody(w, r, 8); ok {
			fmt.Fprintf(w, "%d", len(body))
		}
	}))
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST / HTTP/1.1\r\nHost: planpd\r\nContent-Length: 8\r\n\r\nxxxx")
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("4 of a declared 8 bytes: status %d, want 400", resp.StatusCode)
	}

	for _, tc := range []struct {
		size int
		want string
	}{{8, "200 OK"}, {9, "413 Request Entity Too Large"}} {
		// A reader of unknown length makes the client send it chunked.
		chunked := io.MultiReader(strings.NewReader(strings.Repeat("x", tc.size)))
		resp, err := http.Post(srv.URL, "text/plain", chunked)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Status != tc.want || declared.Load() != -1 {
			t.Errorf("%d bytes chunked: %s (Content-Length %d), want %s (-1)", tc.size, resp.Status, declared.Load(), tc.want)
		}
	}
}

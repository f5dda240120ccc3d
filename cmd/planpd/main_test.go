package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"planp.dev/planp/internal/planpd"
)

// TestMalformedTargetsSendNothing: a target list the daemon would refuse
// — an empty name or URL, a name twice, a URL that does not parse — is
// a usage error of the deploy and adapt verbs, found before they send
// any request.
func TestMalformedTargetsSendNothing(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	src := filepath.Join(t.TempDir(), "p.planp")
	if err := os.WriteFile(src, []byte("-- unused\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []string{"gw,gw", "=http://x", "a=", "gw, a=http://x, gw", "a=http://x y"} {
		if code := runDeploy([]string{"-daemon", srv.URL, "-src", src, "-nodes", nodes}); code != 2 {
			t.Errorf("deploy -nodes %q: exit %d, want 2", nodes, code)
		}
		if code := runAdapt([]string{"-daemon", srv.URL, "-src", src, "-canary", nodes}); code != 2 {
			t.Errorf("adapt -canary %q: exit %d, want 2", nodes, code)
		}
		if code := runAdapt([]string{"-daemon", srv.URL, "-src", src, "-canary", "c", "-baseline", nodes}); code != 2 {
			t.Errorf("adapt -baseline %q: exit %d, want 2", nodes, code)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("malformed lists sent %d requests", n)
	}
	if code := runDeploy([]string{"-daemon", srv.URL, "-src", src, "-nodes", "gw,a=http://x"}); code != 0 || hits.Load() != 1 {
		t.Errorf("a well-formed list: exit %d after %d requests, want 0 after 1", code, hits.Load())
	}
}

// TestChaosRequest: timeline names are operator text; whatever they
// contain must arrive as one `name` parameter, not reshape the query.
func TestChaosRequest(t *testing.T) {
	const base = "http://h:8377"
	cases := []struct {
		verb, name      string
		haveFile, clear bool
		method, target  string
		wantErr         bool
	}{
		{verb: "stage", haveFile: true, method: http.MethodPost, target: base + "/chaos/stage"},
		{verb: "stage", name: "n", wantErr: true},
		{verb: "start", haveFile: true, name: "ignored", method: http.MethodPost, target: base + "/chaos/start"},
		{verb: "start", name: "partition", method: http.MethodPost, target: base + "/chaos/start?name=partition"},
		{verb: "start", name: "a&clear=1 #x", method: http.MethodPost, target: base + "/chaos/start?name=a%26clear%3D1+%23x"},
		{verb: "start", wantErr: true},
		{verb: "stop", method: http.MethodPost, target: base + "/chaos/stop"},
		{verb: "stop", clear: true, method: http.MethodPost, target: base + "/chaos/stop?clear=1"},
		{verb: "stop", name: "a b&c", clear: true, method: http.MethodPost, target: base + "/chaos/stop?clear=1&name=a+b%26c"},
		{verb: "status", method: http.MethodGet, target: base + "/chaos/status"},
		{verb: "explode", wantErr: true},
	}
	for _, tc := range cases {
		method, target, err := chaosRequest(base+"/", tc.verb, tc.name, tc.haveFile, tc.clear)
		if tc.wantErr {
			if err == nil {
				t.Errorf("chaos %s name=%q file=%v: no error, got %s %s", tc.verb, tc.name, tc.haveFile, method, target)
			}
			continue
		}
		if err != nil || method != tc.method || target != tc.target {
			t.Errorf("chaos %s name=%q file=%v clear=%v = %s %s (%v), want %s %s",
				tc.verb, tc.name, tc.haveFile, tc.clear, method, target, err, tc.method, tc.target)
		}
	}
}

// TestCLIRefusesOversizedAnswer: a daemon's answer over the verbs'
// 4 MiB bound is refused as too large, whether its length is declared
// or it comes chunked — not cut at the bound and then reported as a
// failed decode that echoes the first 4 MiB.
func TestCLIRefusesOversizedAnswer(t *testing.T) {
	body := `{"pad":"` + strings.Repeat("a", 5<<20) + `"}`
	for _, declared := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			}
			io.WriteString(w, body)
		}))
		code, stderr := captureStderr(t, func() int { return runChaos([]string{"status", "-daemon", srv.URL}) })
		srv.Close()
		if code != 1 || !strings.Contains(stderr, planpd.ErrTooLarge.Error()) || len(stderr) > 1<<10 {
			t.Errorf("declared length %v: exit %d, %d bytes on stderr beginning %.80q; want exit 1 naming %q",
				declared, code, len(stderr), stderr, planpd.ErrTooLarge)
		}
	}
}

// captureStderr runs f with os.Stderr sent to a file and returns f's
// result and what it wrote there.
func captureStderr(t *testing.T, f func() int) (int, string) {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	code := f()
	os.Stderr = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

package fleet

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// queryTap answers every request 200 "{}" and records its method, path
// and raw query.
type queryTap struct{ sent []string }

func (q *queryTap) RoundTrip(r *http.Request) (*http.Response, error) {
	line := r.Method + " " + r.URL.Path
	if r.URL.RawQuery != "" || r.URL.ForceQuery {
		line += "?" + r.URL.RawQuery
	}
	q.sent = append(q.sent, line)
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("{}")), Request: r}, nil
}

// TestNodeQueriesMatchValuesEncode pins the URLs the controller sends a
// node: each query is byte for byte what url.Values.Encode makes of its
// parameters, escapes and key order included, and a call without
// parameters has no '?'.
func TestNodeQueriesMatchValuesEncode(t *testing.T) {
	tap := &queryTap{}
	c := New(Config{Client: &http.Client{Transport: tap}})
	targets := []Target{{Name: "n0", URL: "http://n0/"}}
	d := c.newDeployment(&Spec{Version: "v1"}, targets)
	nc := &nodeClient{c: c, d: d, Target: targets[0]}
	ctx := context.Background()

	var want []string
	for _, v := range []string{"v1", "s1-r22-333", "a b&c=d;e+f%/ä?#", ""} {
		for _, ev := range [][2]string{{"", ""}, {"jit", ""}, {"", "privileged"}, {"bytecode", "single"}, {"j&t", "x y"}} {
			q := url.Values{"version": {v}}
			if ev[0] != "" {
				q.Set("engine", ev[0])
			}
			if ev[1] != "" {
				q.Set("verify", ev[1])
			}
			nc.stage(ctx, Spec{Version: v, Engine: ev[0], Verify: ev[1], Source: "src"})
			want = append(want, "POST /asp/stage?"+q.Encode())
		}
		version := url.Values{"version": {v}}.Encode()
		nc.abortStage(ctx, v)
		nc.activate(ctx, v)
		nc.rollback(ctx, v)
		want = append(want, "DELETE /asp/stage?"+version, "POST /asp/activate?"+version, "POST /asp/rollback?"+version)
	}
	nc.health(ctx)
	want = append(want, "GET /healthz")
	for _, digest := range []string{"0123456789abcdef0123456789abcdef", "a b&c=d;e+f%/ä"} {
		c.holdSignature(nc.URL, digest, nil)
		nc.health(ctx)
		want = append(want, "GET /healthz?"+url.Values{"signature": {digest}}.Encode())
	}
	nc.aspStatus(ctx)
	want = append(want, "GET /asp")

	if len(tap.sent) != len(want) {
		t.Fatalf("sent %d requests, want %d:\n%s", len(tap.sent), len(want), strings.Join(tap.sent, "\n"))
	}
	for i := range want {
		if tap.sent[i] != want[i] {
			t.Errorf("request %d: sent %q, want %q", i, tap.sent[i], want[i])
		}
	}
}

package main

import (
	"net/http"
	"testing"
)

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

package fleet

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseTargets(t *testing.T) {
	resolve := func(name string) (string, bool) {
		if name == "gw" || name == "s0" {
			return "http://d1:8377/node/" + name, true
		}
		return "", false
	}
	cases := []struct {
		name, spec string
		want       []Target
		wantErr    string
	}{
		{name: "name=url passes through unresolved", spec: "edge=http://10.0.0.2:8377/node/edge",
			want: []Target{{Name: "edge", URL: "http://10.0.0.2:8377/node/edge"}}},
		{name: "bare names resolve", spec: "gw, s0,",
			want: []Target{{Name: "gw", URL: "http://d1:8377/node/gw"}, {Name: "s0", URL: "http://d1:8377/node/s0"}}},
		{name: "mixed", spec: "gw,x=http://h/node/x",
			want: []Target{{Name: "gw", URL: "http://d1:8377/node/gw"}, {Name: "x", URL: "http://h/node/x"}}},
		{name: "bare name unresolved", spec: "gw,nosuch", wantErr: `target "nosuch": no such node`},
		{name: "URL without a name", spec: "http://10.0.0.2:8377", wantErr: "use name=url"},
		{name: "empty list", spec: "", wantErr: "no target nodes given"},
		{name: "only separators", spec: " , ,", wantErr: "no target nodes given"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseTargets(tc.spec, resolve)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseTargets(%q) error = %v, want one containing %q", tc.spec, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ParseTargets(%q) = %+v, want %+v", tc.spec, got, tc.want)
			}
		})
	}
}

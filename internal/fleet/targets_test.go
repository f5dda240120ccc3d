package fleet

import (
	"context"
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
		{name: "empty name", spec: "=http://x", wantErr: "needs both name and URL"},
		{name: "empty URL", spec: "gw,a=", wantErr: "needs both name and URL"},
		{name: "URL that does not parse", spec: "gw,a=http://x y", wantErr: `target "a=http://x y": parse "http://x y": invalid character`},
		{name: "URL without a scheme", spec: "a=10.0.0.2:8377", wantErr: `target "a=10.0.0.2:8377": parse `},
		{name: "URL with another scheme", spec: "a=ftp://h/node/a", wantErr: `target "a=ftp://h/node/a": not an http or https URL with a host`},
		{name: "URL without a host", spec: "a=http:///node/a", wantErr: `target "a=http:///node/a": not an http or https URL with a host`},
		{name: "path without a scheme", spec: "a=/node/a", wantErr: `target "a=/node/a": not an http or https URL with a host`},
		{name: "https passes", spec: "a=https://h:8443/node/a",
			want: []Target{{Name: "a", URL: "https://h:8443/node/a"}}},
		{name: "name twice", spec: "gw,gw", wantErr: `duplicate target name "gw"`},
		{name: "name twice, once explicit", spec: "gw, gw=http://h/node/gw", wantErr: `duplicate target name "gw"`},
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

// FuzzParseTargets feeds any text to ParseTargets as /deploy's nodes=
// query and the CLIs' -nodes, -canary and -baseline flags. The contract:
// it never panics, and it either refuses the text or returns a list
// Deploy takes — so a malformed list is a 400 or a usage error, never a
// rollout that fails (corpus in testdata/fuzz/FuzzParseTargets).
func FuzzParseTargets(f *testing.F) {
	for _, spec := range []string{"gw, s0,", "gw,x=http://h/node/x", "gw,gw", "=http://x", "a=", "blank", " , ,", "a=http://x y"} {
		f.Add(spec)
	}
	// The resolver knows a few names, and maps one to an empty URL as a
	// broken topology lookup would.
	resolve := func(name string) (string, bool) {
		switch name {
		case "gw", "s0", "s1":
			return "http://d1:8377/node/" + name, true
		case "blank":
			return "", true
		}
		return "", false
	}
	// Deploy checks its targets before anything else; an engine it does
	// not know then stops it before it calls a node.
	c := New(Config{})
	f.Fuzz(func(t *testing.T, spec string) {
		targets, err := ParseTargets(spec, resolve)
		if err != nil {
			if targets != nil {
				t.Fatalf("ParseTargets(%q) returned %+v with error %v", spec, targets, err)
			}
			return
		}
		_, err = c.Deploy(context.Background(), Spec{Engine: "none"}, targets)
		if err == nil || !strings.Contains(err.Error(), `unknown engine "none"`) {
			t.Fatalf("ParseTargets(%q) = %+v, which Deploy refuses: %v", spec, targets, err)
		}
	})
}

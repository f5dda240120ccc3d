package testbed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"planp.dev/planp/internal/substrate"
)

// FuzzParseTopology hammers the topology codec — a file every daemon of
// a testbed is handed by whoever assembles it. The contract: never
// panic; the same input gives the same error text; and what is accepted
// is a value the daemons can build from — addresses distinct as
// ADDRESSES (rtnet.NewNode panics on a duplicate), every segment on one
// daemon (rtnet segments are in-process) — whose node and daemon names
// stay in the alphabet the control API's mux patterns, link names and
// target lists splice them into, and that survives encode → parse
// unchanged.
// inNameAlphabet is the fuzz target's own statement of the name
// alphabet, so it does not check validName against itself.
func inNameAlphabet(s string) bool {
	return s != "" && strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") == ""
}

func FuzzParseTopology(f *testing.F) {
	f.Add(demoJSON)
	f.Add([]byte(validTopo))
	for _, tc := range malformedTopos {
		f.Add([]byte(tc.topo))
	}
	f.Add([]byte(withRoute("gw", "10.0.0.9", "s0"))) // valid: an extra route
	f.Add([]byte(withRoute("gw", "0.0.0.0", "s1")))  // valid: a default route
	f.Add([]byte(groupTopo))
	f.Add([]byte(`{"daemons":[{"name":"d","control":"c"}],"nodes":[{"name":"n","addr":"1.2.3.4","daemon":"d"}],"links":null,"routes":[]}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		topo, err := ParseTopology(b)
		if _, again := ParseTopology(b); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("same input, different errors:\n%v\n%v", err, again)
		}
		if err != nil {
			return
		}
		for _, d := range topo.Daemons {
			if !inNameAlphabet(d.Name) {
				t.Fatalf("accepted daemon name %q", d.Name)
			}
		}
		seen := map[substrate.Addr]string{}
		daemonOf := map[string]string{}
		for _, n := range topo.Nodes {
			if !inNameAlphabet(n.Name) {
				t.Fatalf("accepted node name %q", n.Name)
			}
			if prev, dup := seen[n.Addr]; dup {
				t.Fatalf("accepted nodes %q and %q at one address %s", prev, n.Name, n.Addr)
			}
			seen[n.Addr] = n.Name
			daemonOf[n.Name] = n.Site
			if _, ok := topo.NodeURL(n.Name); !ok {
				t.Fatalf("accepted node %q has no control URL", n.Name)
			}
		}
		for _, s := range topo.Segments {
			for _, m := range s.Members {
				if a, b := daemonOf[s.Members[0]], daemonOf[m]; a != b {
					t.Fatalf("accepted segment %q across daemons %q and %q", s.Name, a, b)
				}
			}
		}
		enc, err := json.Marshal(topo)
		if err != nil {
			t.Fatalf("accepted topology does not encode: %v", err)
		}
		back, err := ParseTopology(enc)
		if err != nil {
			t.Fatalf("accepted topology does not re-parse once encoded: %v\n%s", err, enc)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("encode → parse changed the topology:\n%s\n%s", enc, again)
		}
	})
}

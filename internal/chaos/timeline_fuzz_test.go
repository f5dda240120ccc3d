package chaos

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/rtnet"
	"planp.dev/planp/internal/substrate"
)

// FuzzParseTimeline hammers the timeline codec with what a daemon's
// POST /chaos/stage reads off the network, then compiles what parses
// against an engine wired to fuzzBed — a segment, a link with two
// directions, and nodes that can crash and skew. The contract: never
// panic; the same input gives the same error text, from the parser and
// from Compile; an accepted timeline survives encode → parse
// unchanged; and a compiled scenario plays every step at the offset its
// timeline wrote. The same timeline is also compiled against an engine
// wired to fuzzBed built on netsim (whose nodes cannot skew), and what
// compiles there plays with the simulator run dry: a compiled scenario
// does not panic.
func FuzzParseTimeline(f *testing.F) {
	for _, seed := range []string{
		// docs/CHAOS.md, "Timelines over the wire".
		`{"name": "partition-and-heal", "steps": [
			{"at_ms": 0,    "op": "loss", "link": "gw-s0", "p": 0.9, "dir": "fwd"},
			{"at_ms": 2000, "op": "partition", "links": ["gw-s0"]},
			{"at_ms": 5000, "op": "heal"},
			{"at_ms": 5000, "op": "clockskew", "node": "s0", "skew_ms": 250}]}`,
		// What this package's tests build.
		`{"name": "cut-then-heal", "steps": [
			{"at_ms": 10, "op": "partition", "links": ["uplink", "downlink"]},
			{"at_ms": 50, "op": "heal"}]}`,
		`{"steps":[{"op":"explode","link":"uplink"}]}`,
		`{"steps":[{"op":"down","link":"nope"}]}`,
		`{"steps":[{"op":"crash","node":"nope"}]}`,
		`{"steps":[{"op":"loss","link":"uplink","p":1.5}]}`,
		`{"steps":[{"op":"down","link":"uplink","dir":"sideways"}]}`,
		`{"steps":[{"op":"down","link":"uplink","dir":"fwd"}]}`,
		`{"steps":[{"op":"clockskew","node":"r","skew_ms":100}]}`,
		`{"steps":[{"op":"loss","link":"uplink","prob":0.5}]}`,
		`{"steps":[]}`,
		`{"steps":[{"at_ms":-5,"op":"down","link":"uplink"}]}`,
		// One step per remaining op, and offsets that do not fit a Duration.
		`{"steps":[{"op":"flap","link":"uplink","dur_ms":20},{"op":"up","link":"gw-s0","dir":"rev"},
			{"op":"clear","link":"uplink"},{"op":"corrupt","link":"uplink","p":0.1},{"op":"dup","link":"uplink","p":1},
			{"op":"delay","link":"gw-s0","dur_ms":5},{"op":"jitter","link":"gw-s0","dur_ms":5,"dir":"fwd"},
			{"op":"crash","node":"s0"},{"op":"restart","node":"s0"},{"op":"heal","links":[]}]}`,
		`{"steps":[{"at_ms":9223372036855,"op":"down","link":"uplink"}]}`,
		`{"steps":[{"op":"flap","link":"uplink","dur_ms":9223372036855}]}`,
		`{"steps":[{"op":"clockskew","node":"s0","skew_ms":-9223372036855}]}`,
		`{"steps":[{"op":"down","link":"uplink"}]} {}`,
	} {
		f.Add([]byte(seed))
	}

	nw := rtnet.New(1) // never started: Compile only looks names up
	f.Cleanup(nw.Close)
	b, err := rtnet.Build(nw, &fuzzBed, false)
	if err != nil {
		f.Fatal(err)
	}
	eng := New(nw, &fuzzBed, b, 1)

	f.Fuzz(func(t *testing.T, b []byte) {
		tl, err := ParseTimeline(b)
		if _, again := ParseTimeline(b); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("same input, different errors:\n%v\n%v", err, again)
		}
		if err != nil {
			return
		}
		enc, err := tl.Encode()
		if err != nil {
			t.Fatalf("accepted timeline does not encode: %v", err)
		}
		back, err := ParseTimeline(enc)
		if err != nil {
			t.Fatalf("accepted timeline does not re-parse once encoded: %v\n%s", err, enc)
		}
		if again, _ := back.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("encode → parse changed the timeline:\n%s\n%s", enc, again)
		}

		simErr := playOnNetsim(tl)
		sc, err := eng.Compile(tl)
		if _, again := eng.Compile(tl); fmt.Sprint(again) != fmt.Sprint(err) {
			t.Fatalf("same timeline, different compile errors:\n%v\n%v", err, again)
		}
		if err != nil {
			if simErr == nil {
				t.Fatalf("netsim compiled a timeline rtnet refuses: %v", err)
			}
			return
		}
		for i, st := range tl.Steps {
			for _, ms := range [...]int64{st.AtMS, st.DurMS, st.SkewMS} {
				if d := time.Duration(ms) * time.Millisecond; int64(d/time.Millisecond) != ms {
					t.Fatalf("step %d compiled with %d ms, which no Duration holds", i, ms)
				}
			}
		}
		if sc.Steps() != len(tl.Steps) {
			t.Fatalf("%d steps compiled to %d", len(tl.Steps), sc.Steps())
		}
		for i, st := range sc.steps {
			if st.at < 0 || int64(st.at/time.Millisecond) != tl.Steps[i].AtMS {
				t.Fatalf("step %d: at_ms %d plays at %v", i, tl.Steps[i].AtMS, st.at)
			}
		}
	})
}

// fuzzBed is the one topology both backends build for FuzzParseTimeline:
// gw and s0 joined by the link "gw-s0" and the segment "uplink".
var fuzzBed = substrate.Topology{
	Nodes: []substrate.NodeSpec{{Name: "gw", Addr: 1}, {Name: "s0", Addr: 2}},
	Links: []substrate.LinkSpec{{A: "gw", B: "s0", Bandwidth: 10e6}},
	Segments: []substrate.SegmentSpec{
		{Name: "uplink", Bandwidth: 10e6, Members: []string{"gw", "s0"}},
	},
}

// playOnNetsim compiles tl against an engine wired to fuzzBed built on
// a fresh simulator and, if that compiles, plays it and runs the
// simulator until no event is left.
func playOnNetsim(tl *Timeline) error {
	sim := netsim.New(netsim.WithSeed(1))
	b, err := netsim.Build(sim, &fuzzBed)
	if err != nil {
		return err
	}
	eng := New(sim, &fuzzBed, b.Built, 1)
	sc, err := eng.Compile(tl)
	if err != nil {
		return err
	}
	eng.Play(sc)
	sim.Run()
	return nil
}

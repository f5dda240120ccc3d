package chaos_test

import (
	"strings"
	"testing"
	"time"

	"planp.dev/planp/internal/chaos"
	"planp.dev/planp/internal/netsim"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/substrate"
)

// duplexBed is a netsim bed of one link, "a-r": fwd is a→r, rev is
// r→a. Request/response traffic exercises both directions.
type duplexBed struct {
	*bed
	fwd, rev *chaos.Link // the link's two directions
	echoed   *int
}

// duplexTopo is mkDuplexBed's network.
var duplexTopo = substrate.Topology{
	Nodes: []substrate.NodeSpec{
		{Name: "a", Addr: substrate.MustAddr("10.0.0.1")},
		{Name: "r", Addr: substrate.MustAddr("10.0.0.254")},
	},
	Links: []substrate.LinkSpec{{A: "a", B: "r", Bandwidth: 10_000_000}},
}

func mkDuplexBed(t *testing.T, seed int64) *duplexBed {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(seed))
	built, err := netsim.Build(sim, &duplexTopo)
	if err != nil {
		t.Fatal(err)
	}
	eng := chaos.New(sim, &duplexTopo, built.Built, seed+1000)
	a, r := built.Nodes[0], built.Nodes[1]

	delivered, echoed := 0, 0
	r.BindUDP(9, func(pkt *netsim.Packet) {
		delivered++
		r.Send(netsim.NewUDP(r.Addr, a.Addr, 9, 1000, []byte("echo")).Own())
	})
	a.BindUDP(1000, func(*netsim.Packet) { echoed++ })
	return &duplexBed{
		bed:    &bed{sim: sim, eng: eng, uplink: lookup(t, eng, "a-r"), a: a, r: r, delivered: &delivered},
		fwd:    lookup(t, eng, "a-r:fwd"),
		rev:    lookup(t, eng, "a-r:rev"),
		echoed: &echoed,
	}
}

func (bd *duplexBed) requests(n int) {
	for i := 0; i < n; i++ {
		bd.sim.At(time.Duration(i)*time.Millisecond, func() {
			bd.a.Send(netsim.NewUDP(bd.a.Addr, bd.r.Addr, 1000, 9, []byte("req")).Own())
		})
	}
}

// TestAsymmetricDownRev cuts only the response direction: every request
// arrives, no response comes back.
func TestAsymmetricDownRev(t *testing.T) {
	bd := mkDuplexBed(t, 11)
	bd.rev.Down()
	bd.requests(50)
	bd.sim.Run()
	if *bd.delivered != 50 {
		t.Fatalf("requests delivered %d/50 — forward direction should be clean", *bd.delivered)
	}
	if *bd.echoed != 0 {
		t.Fatalf("echoes delivered %d/50 — reverse direction should be cut", *bd.echoed)
	}
	if !bd.uplink.IsDown() {
		t.Fatalf("link with one cut direction should report IsDown")
	}

	bd.rev.Up()
	bd.requests(10)
	bd.sim.Run()
	if *bd.echoed != 10 {
		t.Fatalf("echoes after heal %d/10", *bd.echoed)
	}
}

// TestAsymmetricLossFwd degrades only the request direction.
func TestAsymmetricLossFwd(t *testing.T) {
	bd := mkDuplexBed(t, 13)
	bd.fwd.SetLoss(1.0)
	bd.requests(30)
	bd.sim.Run()
	if *bd.delivered != 0 {
		t.Fatalf("requests delivered %d/30 through a fully lossy forward direction", *bd.delivered)
	}
	bd.fwd.Clear()
	bd.requests(30)
	bd.sim.Run()
	if *bd.delivered != 30 || *bd.echoed != 30 {
		t.Fatalf("after clear: delivered %d/30, echoed %d/30", *bd.delivered, *bd.echoed)
	}
}

// TestSymmetricSettersCoverBothDirections asserts whole-link setters on
// a link degrade both directions at once.
func TestSymmetricSettersCoverBothDirections(t *testing.T) {
	bd := mkDuplexBed(t, 17)
	bd.uplink.Down()
	bd.requests(20)
	bd.sim.Run()
	if *bd.delivered != 0 || *bd.echoed != 0 {
		t.Fatalf("downed duplex link carried traffic: delivered %d, echoed %d", *bd.delivered, *bd.echoed)
	}
	bd.uplink.Up()
	bd.requests(20)
	bd.sim.Run()
	if *bd.delivered != 20 || *bd.echoed != 20 {
		t.Fatalf("after up: delivered %d/20, echoed %d/20", *bd.delivered, *bd.echoed)
	}
}

// TestDirOnSymmetricLinkPanics: a segment is one symmetric medium, so
// one direction of it is an author error and fails fast: LookupLink,
// the one way to a narrowed handle, refuses ":fwd" and ":rev" on it
// with an error that names the segment.
func TestDirOnSymmetricLinkPanics(t *testing.T) {
	bd := mkBed(t, 19)
	for _, ref := range []string{"lan:fwd", "lan:rev"} {
		l, err := bd.eng.LookupLink(ref)
		if l != nil || err == nil {
			t.Fatalf("LookupLink(%q) on a segment = %v, %v; want an error", ref, l, err)
		}
		if !strings.Contains(err.Error(), `segment "lan"`) {
			t.Fatalf("error %q does not name the segment", err)
		}
	}
}

// TestPlayRunStop stops a playing scenario midway: fired steps stay
// applied, pending steps are suppressed.
func TestPlayRunStop(t *testing.T) {
	bd := mkBed(t, 23)
	run := play(t, bd.eng,
		chaos.TimelineStep{AtMS: 10, Op: "down", Link: "a-r"},
		chaos.TimelineStep{AtMS: 50, Op: "up", Link: "a-r"})

	// A stopper on the timeline between the two steps — netsim virtual
	// time, so ordering is exact.
	bd.sim.At(30*time.Millisecond, run.Stop)
	bd.stream(1, 60*time.Millisecond, 0)
	bd.sim.Run()

	fired, total, stopped := run.Status()
	if fired != 1 || total != 2 || !stopped {
		t.Fatalf("run status fired=%d total=%d stopped=%v, want 1/2 stopped", fired, total, stopped)
	}
	if !run.Done() {
		t.Fatalf("stopped run should be done")
	}
	if *bd.delivered != 0 {
		t.Fatalf("the suppressed heal step appears to have run (delivered %d)", *bd.delivered)
	}
}

// TestTimelineCompileAndPlay round-trips a JSON timeline through parse
// → compile → play on netsim.
func TestTimelineCompileAndPlay(t *testing.T) {
	bd := mkBed(t, 29)
	tl, err := chaos.ParseTimeline([]byte(`{
		"name": "cut-then-heal",
		"steps": [
			{"at_ms": 10, "op": "partition", "links": ["a-r", "lan"]},
			{"at_ms": 50, "op": "heal"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bd.eng.Compile(tl)
	if err != nil {
		t.Fatal(err)
	}
	bd.eng.Play(sc)
	bd.stream(10, 20*time.Millisecond, time.Microsecond) // inside the partition
	bd.stream(10, 60*time.Millisecond, time.Microsecond) // after the heal
	bd.sim.Run()
	if *bd.delivered != 10 {
		t.Fatalf("delivered %d, want exactly the 10 post-heal packets", *bd.delivered)
	}
}

// TestTimelineValidation: every class of bad timeline is a structured
// error at compile time, not a panic at play time.
func TestTimelineValidation(t *testing.T) {
	bd := mkBed(t, 31)
	cases := []struct {
		name, json, wantErr string
	}{
		{"unknown-op", `{"steps":[{"op":"explode","link":"a-r"}]}`, "unknown op"},
		{"unknown-link", `{"steps":[{"op":"down","link":"nope"}]}`, "unknown link"},
		{"unknown-node", `{"steps":[{"op":"crash","node":"nope"}]}`, "unknown node"},
		{"bad-prob", `{"steps":[{"op":"loss","link":"a-r","p":1.5}]}`, "probability"},
		{"bad-dir", `{"steps":[{"op":"down","link":"a-r","dir":"sideways"}]}`, "direction"},
		{"dir-on-symmetric", `{"steps":[{"op":"down","link":"lan","dir":"fwd"}]}`, "symmetric"},
		{"skew-on-netsim", `{"steps":[{"op":"clockskew","node":"r","skew_ms":100}]}`, "clock skew"},
		{"typoed-field", `{"steps":[{"op":"loss","link":"a-r","prob":0.5}]}`, "unknown field"},
		{"no-steps", `{"steps":[]}`, "no steps"},
		{"at-overflows", `{"steps":[{"at_ms":9223372036855,"op":"down","link":"a-r"}]}`, "does not fit a duration"},
		{"negative-at", `{"steps":[{"at_ms":-5,"op":"down","link":"a-r"}]}`, "negative at_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tl, err := chaos.ParseTimeline([]byte(tc.json))
			if err == nil {
				_, err = bd.eng.Compile(tl)
			}
			if err == nil {
				t.Fatalf("bad timeline accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestWholeLinkDownAfterOneDirectionCounts: cutting the whole link when
// one direction is already down still cuts the other, so it counts and
// publishes; only a call that changes nothing is silent. Checked on the
// handles and through a compiled timeline.
func TestWholeLinkDownAfterOneDirectionCounts(t *testing.T) {
	drive := map[string]func(bd *duplexBed){
		"handles": func(bd *duplexBed) {
			bd.rev.Down()
			bd.uplink.Down()
			bd.uplink.Down()
		},
		"timeline": func(bd *duplexBed) {
			tl, err := chaos.ParseTimeline([]byte(`{"steps": [
				{"op": "down", "link": "a-r", "dir": "rev"},
				{"op": "partition", "links": ["a-r"]},
				{"op": "partition", "links": ["a-r"]}]}`))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := bd.eng.Compile(tl)
			if err != nil {
				t.Fatal(err)
			}
			bd.eng.Play(sc)
			bd.sim.Run()
		},
	}
	for name, fn := range drive {
		t.Run(name, func(t *testing.T) {
			bd := mkDuplexBed(t, 37)
			var faults []string
			bd.sim.Events().Subscribe(obs.Func(func(ev obs.Event) {
				if ev.Kind == obs.KindFault {
					faults = append(faults, ev.Node+"/"+ev.Detail)
				}
			}))
			fn(bd)
			if got := bd.sim.Metrics().Counter("chaos.link_down").Value(); got != 2 {
				t.Errorf("chaos.link_down = %d, want 2 (rev cut, then fwd cut by the whole-link Down; the repeat is a no-op)", got)
			}
			if want := "a-r/link-down:rev a-r/link-down"; strings.Join(faults, " ") != want {
				t.Errorf("fault events %q, want %q", faults, want)
			}
			if !bd.fwd.IsDown() {
				t.Errorf("forward direction still up after a whole-link Down")
			}
			bd.uplink.Up()
			if got := bd.sim.Metrics().Counter("chaos.link_up").Value(); got != 1 {
				t.Errorf("chaos.link_up = %d, want 1", got)
			}
		})
	}
}

// TestDirectionReferences: a timeline takes "<link>:fwd" /
// "<link>:rev" wherever it takes a link, a step's link+dir is the same
// reference, and New keeps ':' out of link names so a reference reads
// one way.
func TestDirectionReferences(t *testing.T) {
	bd := mkDuplexBed(t, 41)
	play(t, bd.eng, chaos.TimelineStep{Op: "partition", Links: []string{"a-r:rev"}})
	if bd.fwd.IsDown() || !bd.rev.IsDown() {
		t.Fatalf(`partition ["a-r:rev"] cut fwd=%v rev=%v, want only rev`, bd.fwd.IsDown(), bd.rev.IsDown())
	}
	play(t, bd.eng, chaos.TimelineStep{Op: "heal"})

	tl, err := chaos.ParseTimeline([]byte(`{"steps": [{"op": "flap", "link": "a-r", "dir": "fwd", "dur_ms": 20}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bd.eng.Compile(tl)
	if err != nil {
		t.Fatal(err)
	}
	bd.eng.Play(sc)
	bd.sim.At(10*time.Millisecond, func() {
		if !bd.fwd.IsDown() || bd.rev.IsDown() {
			t.Errorf("mid-flap: fwd=%v rev=%v, want only fwd down", bd.fwd.IsDown(), bd.rev.IsDown())
		}
	})
	bd.sim.Run()
	if bd.uplink.IsDown() {
		t.Errorf("link still down after the flap")
	}

	colon := substrate.Topology{Nodes: duplexTopo.Nodes, Segments: []substrate.SegmentSpec{
		{Name: "up:link", Bandwidth: 10_000_000, Members: []string{"a", "r"}}}}
	sim := netsim.New()
	built, err := netsim.Build(sim, &colon)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("New accepted a segment name containing ':'")
		}
	}()
	chaos.New(sim, &colon, built.Built, 1)
}

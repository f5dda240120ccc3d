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

// duplexBed is a netsim bed with the uplink wired per-direction: fwd is
// a→r, rev is r→a. Request/response traffic exercises both directions.
type duplexBed struct {
	*bed
	uplink *chaos.Link
	echoed *int
}

func mkDuplexBed(t *testing.T, seed int64) *duplexBed {
	t.Helper()
	sim := netsim.New(netsim.WithSeed(seed))
	a := netsim.NewNode(sim, "a", netsim.MustAddr("10.0.0.1"))
	r := netsim.NewNode(sim, "r", netsim.MustAddr("10.0.0.254"))
	la := netsim.Connect(sim, a, r, netsim.LinkConfig{Bandwidth: 10_000_000})
	a.SetDefaultRoute(la.Ifaces()[0])
	r.AddRoute(a.Addr, la.Ifaces()[1])

	eng := chaos.New(sim, seed+1000)
	uplink := eng.WireDuplex("uplink",
		[]substrate.FaultPort{la.Ifaces()[0]}, // a→r
		[]substrate.FaultPort{la.Ifaces()[1]}, // r→a
	)

	delivered, echoed := 0, 0
	r.BindUDP(9, func(pkt *netsim.Packet) {
		delivered++
		r.Send(netsim.NewUDP(r.Addr, a.Addr, 9, 1000, []byte("echo")).Own())
	})
	a.BindUDP(1000, func(*netsim.Packet) { echoed++ })
	return &duplexBed{
		bed:    &bed{sim: sim, eng: eng, a: a, r: r, delivered: &delivered},
		uplink: uplink,
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
	bd.uplink.Rev().Down()
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

	bd.uplink.Rev().Up()
	bd.requests(10)
	bd.sim.Run()
	if *bd.echoed != 10 {
		t.Fatalf("echoes after heal %d/10", *bd.echoed)
	}
}

// TestAsymmetricLossFwd degrades only the request direction.
func TestAsymmetricLossFwd(t *testing.T) {
	bd := mkDuplexBed(t, 13)
	bd.uplink.Fwd().SetLoss(1.0)
	bd.requests(30)
	bd.sim.Run()
	if *bd.delivered != 0 {
		t.Fatalf("requests delivered %d/30 through a fully lossy forward direction", *bd.delivered)
	}
	bd.uplink.Fwd().Clear()
	bd.requests(30)
	bd.sim.Run()
	if *bd.delivered != 30 || *bd.echoed != 30 {
		t.Fatalf("after clear: delivered %d/30, echoed %d/30", *bd.delivered, *bd.echoed)
	}
}

// TestSymmetricSettersCoverBothDirections asserts whole-link setters on
// a duplex-wired link degrade both directions at once.
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

// TestDirOnSymmetricLinkPanics: Fwd/Rev on a Wire'd (symmetric) link is
// an author error and must fail fast.
func TestDirOnSymmetricLinkPanics(t *testing.T) {
	bd := mkBed(t, 19)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("Fwd() on a symmetric link did not panic")
		}
		if !strings.Contains(r.(string), "WireDuplex") {
			t.Fatalf("panic %q does not point at WireDuplex", r)
		}
	}()
	l, _ := bd.eng.LookupLink("uplink")
	l.Fwd()
}

// TestPlayRunStop stops a playing scenario midway: fired steps stay
// applied, pending steps are suppressed.
func TestPlayRunStop(t *testing.T) {
	bd := mkBed(t, 23)
	sc := chaos.NewScenario().
		At(10*time.Millisecond, chaos.Down("uplink")).
		At(50*time.Millisecond, chaos.Up("uplink"))
	run := bd.eng.PlayRun(sc)

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
			{"at_ms": 10, "op": "partition", "links": ["uplink", "downlink"]},
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
		{"unknown-op", `{"steps":[{"op":"explode","link":"uplink"}]}`, "unknown op"},
		{"unknown-link", `{"steps":[{"op":"down","link":"nope"}]}`, "unknown link"},
		{"unknown-node", `{"steps":[{"op":"crash","node":"nope"}]}`, "unknown node"},
		{"bad-prob", `{"steps":[{"op":"loss","link":"uplink","p":1.5}]}`, "probability"},
		{"bad-dir", `{"steps":[{"op":"down","link":"uplink","dir":"sideways"}]}`, "direction"},
		{"dir-on-symmetric", `{"steps":[{"op":"down","link":"uplink","dir":"fwd"}]}`, "symmetric"},
		{"skew-on-netsim", `{"steps":[{"op":"clockskew","node":"r","skew_ms":100}]}`, "clock skew"},
		{"typoed-field", `{"steps":[{"op":"loss","link":"uplink","prob":0.5}]}`, "unknown field"},
		{"no-steps", `{"steps":[]}`, "no steps"},
		{"at-overflows", `{"steps":[{"at_ms":9223372036855,"op":"down","link":"uplink"}]}`, "does not fit a duration"},
		{"negative-at", `{"steps":[{"at_ms":-5,"op":"down","link":"uplink"}]}`, "negative at_ms"},
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
			bd.uplink.Rev().Down()
			bd.uplink.Down()
			bd.uplink.Down()
		},
		"timeline": func(bd *duplexBed) {
			tl, err := chaos.ParseTimeline([]byte(`{"steps": [
				{"op": "down", "link": "uplink", "dir": "rev"},
				{"op": "partition", "links": ["uplink"]},
				{"op": "partition", "links": ["uplink"]}]}`))
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
			if want := "uplink/link-down:rev uplink/link-down"; strings.Join(faults, " ") != want {
				t.Errorf("fault events %q, want %q", faults, want)
			}
			if !bd.uplink.Fwd().IsDown() {
				t.Errorf("forward direction still up after a whole-link Down")
			}
			bd.uplink.Up()
			if got := bd.sim.Metrics().Counter("chaos.link_up").Value(); got != 1 {
				t.Errorf("chaos.link_up = %d, want 1", got)
			}
		})
	}
}

// TestDirectionReferences: every constructor takes "<link>:fwd" /
// "<link>:rev" where it takes a link, a timeline step's link+dir is the
// same reference, and Wire keeps ':' out of link names so a reference
// reads one way.
func TestDirectionReferences(t *testing.T) {
	bd := mkDuplexBed(t, 41)
	bd.eng.Apply(chaos.Partition("uplink:rev"))
	if bd.uplink.Fwd().IsDown() || !bd.uplink.Rev().IsDown() {
		t.Fatalf(`Partition("uplink:rev") cut fwd=%v rev=%v, want only rev`, bd.uplink.Fwd().IsDown(), bd.uplink.Rev().IsDown())
	}
	bd.eng.Apply(chaos.Heal())

	tl, err := chaos.ParseTimeline([]byte(`{"steps": [{"op": "flap", "link": "uplink", "dir": "fwd", "dur_ms": 20}]}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bd.eng.Compile(tl)
	if err != nil {
		t.Fatal(err)
	}
	bd.eng.Play(sc)
	bd.sim.At(10*time.Millisecond, func() {
		if !bd.uplink.Fwd().IsDown() || bd.uplink.Rev().IsDown() {
			t.Errorf("mid-flap: fwd=%v rev=%v, want only fwd down", bd.uplink.Fwd().IsDown(), bd.uplink.Rev().IsDown())
		}
	})
	bd.sim.Run()
	if bd.uplink.IsDown() {
		t.Errorf("link still down after the flap")
	}

	defer func() {
		if r := recover(); r == nil {
			t.Errorf("Wire accepted a link name containing ':'")
		}
	}()
	bd.eng.Wire("up:link", bd.a.Interfaces()[0].(*netsim.Iface))
}

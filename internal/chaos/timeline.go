// The timeline: the one form of a fault schedule. It is plain data —
// written as a Go literal by the experiments, by hand or by the planpd
// chaos CLI as JSON, shipped to a daemon's /chaos control API — that
// Compile binds to one engine's handles and Play runs there. Compile
// validates every reference (links, nodes, directions, backend
// capabilities) against the target engine up front, so a bad timeline
// is a structured error at staging time, never a panic on a timer
// goroutine mid-experiment. A step at at_ms 0 applies the moment the
// scenario is played.
//
//	{
//	  "name": "partition-and-heal",
//	  "steps": [
//	    {"at_ms": 0,    "op": "loss", "link": "gateway-server0", "p": 0.9, "dir": "fwd"},
//	    {"at_ms": 2000, "op": "partition", "links": ["gateway-server0"]},
//	    {"at_ms": 5000, "op": "heal"},
//	    {"at_ms": 5000, "op": "clockskew", "node": "server0", "skew_ms": 250}
//	  ]
//	}
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Timeline is the wire form of a fault schedule.
type Timeline struct {
	// Name labels the timeline in /chaos status and logs.
	Name string `json:"name"`
	// Steps are the scheduled interventions, offsets relative to start.
	Steps []TimelineStep `json:"steps"`
}

// TimelineStep is one wire-form intervention. Which fields matter
// depends on Op; Compile rejects steps with missing or nonsensical
// fields.
type TimelineStep struct {
	// AtMS is the step's offset from timeline start, in milliseconds.
	AtMS int64 `json:"at_ms"`
	// Op selects the intervention: down, up, clear, flap, loss,
	// corrupt, dup, delay, jitter (the link ops — the keys of linkOps);
	// partition, heal (link-set ops); crash, restart, clockskew
	// (node ops).
	Op string `json:"op"`
	// Link names the target link or segment (link ops).
	Link string `json:"link,omitempty"`
	// Dir scopes a link op to one direction of a link (a segment has
	// none): "fwd", "rev", or empty for the whole link. Link "a-b" with Dir
	// "rev" is the reference "a-b:rev" (see Engine.LookupLink).
	Dir string `json:"dir,omitempty"`
	// Links names the target set, as references (partition/heal; heal
	// with an empty set brings every wired link back up).
	Links []string `json:"links,omitempty"`
	// Node names the target node (crash/restart/clockskew).
	Node string `json:"node,omitempty"`
	// P is the per-packet probability (loss/corrupt/dup).
	P float64 `json:"p,omitempty"`
	// DurMS is the duration operand in milliseconds (flap's down time,
	// delay's latency, jitter's bound).
	DurMS int64 `json:"dur_ms,omitempty"`
	// SkewMS is clockskew's signed offset in milliseconds (0 heals).
	SkewMS int64 `json:"skew_ms,omitempty"`
}

// ParseTimeline decodes a JSON timeline, strictly: unknown fields are
// errors (a typoed "prob" must not silently become p=0).
func ParseTimeline(b []byte) (*Timeline, error) {
	var tl Timeline
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tl); err != nil {
		return nil, fmt.Errorf("chaos: timeline: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("chaos: timeline: trailing data after JSON document")
	}
	if len(tl.Steps) == 0 {
		return nil, fmt.Errorf("chaos: timeline %q has no steps", tl.Name)
	}
	return &tl, nil
}

// Encode renders the timeline as JSON.
func (tl *Timeline) Encode() ([]byte, error) { return json.MarshalIndent(tl, "", "  ") }

// maxMS is the largest millisecond count a time.Duration holds; beyond
// it at_ms wraps negative and a step meant for never fires at once.
const maxMS = math.MaxInt64 / int64(time.Millisecond)

// Compile validates the timeline against this engine — every link and
// node must be wired/adopted, directions name a link's, not a segment's,
// clockskew requires a backend that supports it — and returns the
// executable scenario, each step bound to the handles its references
// resolve to. The first invalid step aborts with an error naming it. A
// scenario that compiles cannot panic when it plays.
func (e *Engine) Compile(tl *Timeline) (*Scenario, error) {
	sc := &Scenario{steps: make([]step, 0, len(tl.Steps))}
	for i, st := range tl.Steps {
		for _, ms := range [...]int64{st.AtMS, st.DurMS, st.SkewMS} {
			if ms > maxMS || ms < -maxMS {
				return nil, fmt.Errorf("chaos: timeline %q step %d (%s): %d ms does not fit a duration", tl.Name, i, st.Op, ms)
			}
		}
		apply, err := e.compileStep(st)
		if err != nil {
			return nil, fmt.Errorf("chaos: timeline %q step %d (%s at %dms): %w",
				tl.Name, i, st.Op, st.AtMS, err)
		}
		if st.AtMS < 0 {
			return nil, fmt.Errorf("chaos: timeline %q step %d (%s): negative at_ms", tl.Name, i, st.Op)
		}
		sc.steps = append(sc.steps, step{at: time.Duration(st.AtMS) * time.Millisecond, apply: apply})
	}
	return sc, nil
}

// dur is the step's duration operand.
func (st TimelineStep) dur() time.Duration { return time.Duration(st.DurMS) * time.Millisecond }

// linkOps is every op that addresses one link, or one direction of it:
// the check of its operand (nil when it has none) and the step it binds
// to the resolved handle.
var linkOps = map[string]struct {
	check func(st TimelineStep) error
	bind  func(l *Link, st TimelineStep) func()
}{
	"down":  {nil, func(l *Link, _ TimelineStep) func() { return l.Down }},
	"up":    {nil, func(l *Link, _ TimelineStep) func() { return l.Up }},
	"clear": {nil, func(l *Link, _ TimelineStep) func() { return l.Clear }},
	"flap": {checkFlap, func(l *Link, st TimelineStep) func() {
		return func() { l.Down(); l.e.env.After(st.dur(), l.Up) }
	}},
	"loss":    {checkProb, func(l *Link, st TimelineStep) func() { return func() { l.SetLoss(st.P) } }},
	"corrupt": {checkProb, func(l *Link, st TimelineStep) func() { return func() { l.SetCorrupt(st.P) } }},
	"dup":     {checkProb, func(l *Link, st TimelineStep) func() { return func() { l.SetDup(st.P) } }},
	"delay":   {checkLatency, func(l *Link, st TimelineStep) func() { return func() { l.SetDelay(st.dur()) } }},
	"jitter":  {checkLatency, func(l *Link, st TimelineStep) func() { return func() { l.SetJitter(st.dur()) } }},
}

func checkProb(st TimelineStep) error {
	if st.P < 0 || st.P > 1 {
		return fmt.Errorf("probability %v outside [0, 1]", st.P)
	}
	return nil
}

func checkFlap(st TimelineStep) error {
	if st.DurMS <= 0 {
		return fmt.Errorf("flap needs a positive dur_ms")
	}
	return nil
}

func checkLatency(st TimelineStep) error {
	if st.DurMS < 0 {
		return fmt.Errorf("negative dur_ms")
	}
	return nil
}

// compileStep resolves the references of one step — LookupLink per
// link, LookupNode per node — checks its operands, and binds it to the
// handles it found.
func (e *Engine) compileStep(st TimelineStep) (func(), error) {
	if op, ok := linkOps[st.Op]; ok {
		ref := st.Link
		if st.Dir != "" {
			ref += ":" + st.Dir
		}
		l, err := e.LookupLink(ref)
		if err != nil {
			return nil, err
		}
		if op.check != nil {
			if err := op.check(st); err != nil {
				return nil, err
			}
		}
		return op.bind(l, st), nil
	}
	switch st.Op {
	case "partition", "heal":
		refs, do := st.Links, (*Link).Down
		if st.Op == "heal" {
			do = (*Link).Up
			if len(refs) == 0 {
				refs = e.LinkNames()
			}
		} else if len(refs) == 0 {
			return nil, fmt.Errorf("partition needs links")
		}
		links := make([]*Link, len(refs))
		for i, ref := range refs {
			l, err := e.LookupLink(ref)
			if err != nil {
				return nil, err
			}
			links[i] = l
		}
		return func() {
			for _, l := range links {
				do(l)
			}
		}, nil
	case "crash", "restart", "clockskew":
		h, err := e.LookupNode(st.Node)
		if err != nil {
			return nil, err
		}
		switch st.Op {
		case "crash":
			return h.Crash, nil
		case "restart":
			return h.Restart, nil
		}
		if !h.CanSkew() {
			return nil, fmt.Errorf("node %q's backend does not support clock skew (rtnet only)", st.Node)
		}
		skew := time.Duration(st.SkewMS) * time.Millisecond
		return func() { h.SetClockSkew(skew) }, nil
	default:
		return nil, fmt.Errorf("unknown op %q", st.Op)
	}
}

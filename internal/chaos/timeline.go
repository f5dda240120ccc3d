// The timeline codec: a JSON representation of a Scenario, so fault
// schedules can cross process boundaries — written by hand or by the
// planpd chaos CLI, shipped to a daemon's /chaos control API, compiled
// against that daemon's engine, and played there. A timeline is plain
// data; Compile validates every reference (links, nodes, directions,
// backend capabilities) against the target engine up front, so a bad
// timeline is a structured error at staging time, never a panic on a
// timer goroutine mid-experiment.
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
	// Op selects the intervention: down, up, flap, clear, loss,
	// corrupt, dup, delay, jitter (link ops, optionally directional);
	// partition, heal (link-set ops); crash, restart, clockskew
	// (node ops).
	Op string `json:"op"`
	// Link names the target link (link ops).
	Link string `json:"link,omitempty"`
	// Dir scopes a link op to one direction of a duplex-wired link:
	// "fwd", "rev", or empty for the whole link.
	Dir string `json:"dir,omitempty"`
	// Links names the target set (partition/heal; heal with an empty
	// set heals every wired link).
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
// node must be wired/adopted, directions require duplex wiring,
// clockskew requires a backend that supports it — and returns the
// executable scenario. The first invalid step aborts with an error
// naming it.
func (e *Engine) Compile(tl *Timeline) (*Scenario, error) {
	sc := NewScenario()
	for i, st := range tl.Steps {
		for _, ms := range [...]int64{st.AtMS, st.DurMS, st.SkewMS} {
			if ms > maxMS || ms < -maxMS {
				return nil, fmt.Errorf("chaos: timeline %q step %d (%s): %d ms does not fit a duration", tl.Name, i, st.Op, ms)
			}
		}
		a, err := e.compileStep(st)
		if err != nil {
			return nil, fmt.Errorf("chaos: timeline %q step %d (%s at %dms): %w",
				tl.Name, i, st.Op, st.AtMS, err)
		}
		if st.AtMS < 0 {
			return nil, fmt.Errorf("chaos: timeline %q step %d (%s): negative at_ms", tl.Name, i, st.Op)
		}
		sc.At(time.Duration(st.AtMS)*time.Millisecond, a)
	}
	return sc, nil
}

// checkLink validates a link reference and its optional direction.
func (e *Engine) checkLink(name, dir string) error {
	if name == "" {
		return fmt.Errorf("missing link")
	}
	l, ok := e.LookupLink(name)
	if !ok {
		return fmt.Errorf("unknown link %q (wired: %v)", name, e.LinkNames())
	}
	switch dir {
	case "":
	case "fwd", "rev":
		if !l.Duplex() {
			return fmt.Errorf("link %q is symmetric; per-direction faults need WireDuplex", name)
		}
	default:
		return fmt.Errorf("direction %q (want \"fwd\", \"rev\", or empty)", dir)
	}
	return nil
}

func (e *Engine) checkNode(name string) (*NodeHandle, error) {
	if name == "" {
		return nil, fmt.Errorf("missing node")
	}
	h, ok := e.LookupNode(name)
	if !ok {
		return nil, fmt.Errorf("unknown node %q (adopted: %v)", name, e.NodeNames())
	}
	return h, nil
}

func checkProb(p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return nil
}

func (e *Engine) compileStep(st TimelineStep) (Action, error) {
	var zero Action
	dur := time.Duration(st.DurMS) * time.Millisecond
	switch st.Op {
	case "down", "up", "clear":
		if err := e.checkLink(st.Link, st.Dir); err != nil {
			return zero, err
		}
		switch st.Op {
		case "down":
			return DownDir(st.Link, st.Dir), nil
		case "up":
			return UpDir(st.Link, st.Dir), nil
		default:
			return ClearDir(st.Link, st.Dir), nil
		}
	case "flap":
		if st.Dir != "" {
			return zero, fmt.Errorf("flap does not take a direction")
		}
		if err := e.checkLink(st.Link, ""); err != nil {
			return zero, err
		}
		if dur <= 0 {
			return zero, fmt.Errorf("flap needs a positive dur_ms")
		}
		return Flap(st.Link, dur), nil
	case "loss", "corrupt", "dup":
		if err := e.checkLink(st.Link, st.Dir); err != nil {
			return zero, err
		}
		if err := checkProb(st.P); err != nil {
			return zero, err
		}
		switch st.Op {
		case "loss":
			return LossDir(st.Link, st.Dir, st.P), nil
		case "corrupt":
			return CorruptDir(st.Link, st.Dir, st.P), nil
		default:
			return DuplicateDir(st.Link, st.Dir, st.P), nil
		}
	case "delay", "jitter":
		if err := e.checkLink(st.Link, st.Dir); err != nil {
			return zero, err
		}
		if dur < 0 {
			return zero, fmt.Errorf("negative dur_ms")
		}
		if st.Op == "delay" {
			return DelayDir(st.Link, st.Dir, dur), nil
		}
		return JitterDir(st.Link, st.Dir, dur), nil
	case "partition":
		if len(st.Links) == 0 {
			return zero, fmt.Errorf("partition needs links")
		}
		for _, name := range st.Links {
			if err := e.checkLink(name, ""); err != nil {
				return zero, err
			}
		}
		return Partition(st.Links...), nil
	case "heal":
		for _, name := range st.Links {
			if err := e.checkLink(name, ""); err != nil {
				return zero, err
			}
		}
		return Heal(st.Links...), nil
	case "crash", "restart":
		if _, err := e.checkNode(st.Node); err != nil {
			return zero, err
		}
		if st.Op == "crash" {
			return Crash(st.Node), nil
		}
		return Restart(st.Node), nil
	case "clockskew":
		h, err := e.checkNode(st.Node)
		if err != nil {
			return zero, err
		}
		if !h.CanSkew() {
			return zero, fmt.Errorf("node %q's backend does not support clock skew (rtnet only)", st.Node)
		}
		return ClockSkew(st.Node, time.Duration(st.SkewMS)*time.Millisecond), nil
	default:
		return zero, fmt.Errorf("unknown op %q", st.Op)
	}
}

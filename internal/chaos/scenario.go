// The scenario timeline: a small declarative schedule of fault and heal
// actions played against an engine. Scenarios are data — build one with
// At/Every, then Play it; the engine schedules every step through
// substrate.Env.After, so the same scenario runs in virtual time on
// netsim (deterministically, including the actions' interleaving with
// traffic) and on real timers on rtnet.
//
//	sc := chaos.NewScenario().
//		At(2*time.Second, chaos.Loss("uplink", 0.2)).
//		At(5*time.Second, chaos.Partition("uplink")).
//		At(8*time.Second, chaos.Heal()).
//		Every(10*time.Second, 60*time.Second, chaos.Flap("lan", time.Second))
//	engine.Play(sc)
package chaos

import (
	"fmt"
	"sync"
	"time"
)

// Action is one scheduled intervention. Actions are built by the
// package-level constructors below and applied by Engine.Apply or a
// scenario step.
type Action struct {
	// Desc names the action for logs and failure messages.
	Desc string
	run  func(e *Engine)
}

// Apply runs a single action immediately (tests and ad-hoc drills; for
// schedules use a Scenario).
func (e *Engine) Apply(a Action) { a.run(e) }

// onLink is every single-link action: resolve the reference when the
// action fires, then do one thing to the handle. A link argument below
// is a reference in LookupLink's spelling — "uplink" for the whole
// link, "uplink:fwd" or "uplink:rev" for one direction of a link wired
// with WireDuplex (requests arrive, responses drown).
func onLink(desc, link string, do func(l *Link)) Action {
	return Action{Desc: desc, run: func(e *Engine) { do(e.link(link)) }}
}

// Down cuts a link until Up.
func Down(link string) Action { return onLink("down "+link, link, (*Link).Down) }

// Up restores a downed link.
func Up(link string) Action { return onLink("up "+link, link, (*Link).Up) }

// Flap cuts a link and schedules its restoration downFor later — one
// flap; combine with Scenario.Every for periodic flapping.
func Flap(link string, downFor time.Duration) Action {
	return onLink(fmt.Sprintf("flap %s for %s", link, downFor), link, func(l *Link) {
		l.Down()
		l.e.env.After(downFor, l.Up)
	})
}

// Partition cuts a set of links at once.
func Partition(links ...string) Action {
	return Action{Desc: fmt.Sprintf("partition %v", links), run: func(e *Engine) {
		e.PartitionLinks(links...)
	}}
}

// Heal restores the named links — all wired links when called with no
// names.
func Heal(links ...string) Action {
	desc := "heal all"
	if len(links) > 0 {
		desc = fmt.Sprintf("heal %v", links)
	}
	return Action{Desc: desc, run: func(e *Engine) { e.HealLinks(links...) }}
}

// Loss sets a link's per-packet drop probability.
func Loss(link string, p float64) Action {
	return onLink(fmt.Sprintf("loss %s %.2f", link, p), link, func(l *Link) { l.SetLoss(p) })
}

// Corrupt sets a link's per-packet bit-flip probability.
func Corrupt(link string, p float64) Action {
	return onLink(fmt.Sprintf("corrupt %s %.2f", link, p), link, func(l *Link) { l.SetCorrupt(p) })
}

// Duplicate sets a link's per-packet duplication probability.
func Duplicate(link string, p float64) Action {
	return onLink(fmt.Sprintf("duplicate %s %.2f", link, p), link, func(l *Link) { l.SetDup(p) })
}

// Delay adds fixed latency to every packet on a link.
func Delay(link string, d time.Duration) Action {
	return onLink(fmt.Sprintf("delay %s %s", link, d), link, func(l *Link) { l.SetDelay(d) })
}

// Jitter adds uniform [0, d) latency per packet on a link — the
// reordering primitive.
func Jitter(link string, d time.Duration) Action {
	return onLink(fmt.Sprintf("jitter %s %s", link, d), link, func(l *Link) { l.SetJitter(d) })
}

// Clear resets every fault on a link.
func Clear(link string) Action { return onLink("clear "+link, link, (*Link).Clear) }

// ClockSkew shifts a node's host clock by d (0 heals) — rtnet only;
// see NodeHandle.SetClockSkew.
func ClockSkew(node string, d time.Duration) Action {
	return Action{Desc: fmt.Sprintf("clockskew %s %s", node, d), run: func(e *Engine) {
		e.node(node).SetClockSkew(d)
	}}
}

// Crash takes a node down with ASP state loss.
func Crash(node string) Action {
	return Action{Desc: "crash " + node, run: func(e *Engine) { e.node(node).Crash() }}
}

// Restart brings a crashed node back up, bare.
func Restart(node string) Action {
	return Action{Desc: "restart " + node, run: func(e *Engine) { e.node(node).Restart() }}
}

// Call runs arbitrary code on the timeline (drive a fleet redeploy,
// flip application state). fn runs on the environment's timer context:
// the event loop on netsim, a timer goroutine on rtnet.
func Call(desc string, fn func()) Action {
	return Action{Desc: desc, run: func(*Engine) { fn() }}
}

// ---------------------------------------------------------------------------
// Scenario

// step is one scheduled action.
type step struct {
	at     time.Duration
	action Action
}

// Scenario is a declarative fault schedule. The zero value is empty;
// build with At/Every (both return the scenario for chaining).
type Scenario struct {
	steps []step
}

// NewScenario returns an empty scenario.
func NewScenario() *Scenario { return &Scenario{} }

// At schedules actions at offset t from Play time. Actions at equal
// times run in the order they were added.
func (s *Scenario) At(t time.Duration, actions ...Action) *Scenario {
	for _, a := range actions {
		s.steps = append(s.steps, step{at: t, action: a})
	}
	return s
}

// Every schedules a at period, 2*period, ... up to and including until
// — the periodic form (Every(10s, 60s, Flap("lan", 1s)) flaps six
// times). The expansion happens at build time, so the schedule is plain
// data and replays identically.
func (s *Scenario) Every(period, until time.Duration, a Action) *Scenario {
	if period <= 0 {
		panic("chaos: Every period must be positive")
	}
	for t := period; t <= until; t += period {
		s.steps = append(s.steps, step{at: t, action: a})
	}
	return s
}

// Steps returns the number of scheduled steps.
func (s *Scenario) Steps() int { return len(s.steps) }

// Play schedules every step through the environment's timer, offsets
// relative to now. It returns immediately; on netsim the actions fire
// as the simulation runs, on rtnet as wall-clock time passes.
func (e *Engine) Play(s *Scenario) { e.PlayRun(s) }

// PlayRun is Play returning a handle: the run tracks how many steps
// have fired and can be stopped, suppressing every step that has not —
// the remote /chaos control plane's stop semantics. Faults already
// injected are NOT reverted by Stop (pair with Engine.ClearAll for a
// full heal).
func (e *Engine) PlayRun(s *Scenario) *Run {
	r := &Run{total: len(s.steps)}
	for _, st := range s.steps {
		action := st.action
		e.env.After(st.at, func() {
			r.mu.Lock()
			if r.stopped {
				r.mu.Unlock()
				return
			}
			r.fired++
			r.mu.Unlock()
			action.run(e)
		})
	}
	return r
}

// Run is one playing scenario: a countdown of pending steps with a
// stop switch.
type Run struct {
	total int

	mu      sync.Mutex
	fired   int
	stopped bool
}

// Stop suppresses every step that has not fired yet. Idempotent; steps
// already applied stay applied.
func (r *Run) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// Status reports how many steps have fired, the total scheduled, and
// whether the run was stopped.
func (r *Run) Status() (fired, total int, stopped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired, r.total, r.stopped
}

// Done reports whether the run will fire no further steps — every step
// ran or the run was stopped.
func (r *Run) Done() bool {
	fired, total, stopped := r.Status()
	return stopped || fired == total
}

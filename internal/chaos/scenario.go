// Playing a compiled timeline. A Scenario is what Compile makes of a
// Timeline: each step's offset and the fault it applies, already bound
// to the handles its references name. The engine schedules every step
// through substrate.Env.After, so the same scenario runs in virtual
// time on netsim (deterministically, including the steps' interleaving
// with traffic) and on real timers on rtnet.
package chaos

import (
	"sync"
	"time"
)

// step is one scheduled intervention, bound by Compile.
type step struct {
	at    time.Duration
	apply func()
}

// Scenario is a compiled fault schedule. Only Compile builds one; it
// holds no run state, so it can be played any number of times.
type Scenario struct {
	steps []step
}

// Steps returns the number of scheduled steps.
func (s *Scenario) Steps() int { return len(s.steps) }

// Play starts the scenario with offsets relative to now and returns its
// run. A step at offset 0 is applied before Play returns, in timeline
// order, so an immediate fault is in effect as soon as Play is; every
// later step fires through the environment's timer — the event loop on
// netsim, a timer goroutine on rtnet. Steps at equal offsets fire in
// timeline order.
func (e *Engine) Play(s *Scenario) *Run {
	r := &Run{total: len(s.steps)}
	for _, st := range s.steps {
		if st.at == 0 {
			r.fire(st.apply)
			continue
		}
		e.env.After(st.at, func() { r.fire(st.apply) })
	}
	return r
}

// Run is one playing scenario: a countdown of pending steps with a
// stop switch. Faults already injected are not reverted by Stop (pair
// with Engine.ClearAll for a full heal).
type Run struct {
	total int

	mu       sync.Mutex
	fired    int // steps applied to completion
	applying int // steps being applied right now
	stopped  bool
}

// fire applies one step unless the run was stopped, and counts it only
// once it has been applied.
func (r *Run) fire(apply func()) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.applying++
	r.mu.Unlock()
	apply()
	r.mu.Lock()
	r.applying--
	r.fired++
	r.mu.Unlock()
}

// Stop suppresses every step that has not fired yet. Idempotent; steps
// already applied stay applied, and a step being applied completes.
func (r *Run) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// Status reports how many steps have been applied, the total scheduled,
// and whether the run was stopped.
func (r *Run) Status() (fired, total int, stopped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired, r.total, r.stopped
}

// Done reports whether the run will change nothing further — every step
// has been applied, or the run was stopped and no step is mid-apply.
func (r *Run) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired == r.total || (r.stopped && r.applying == 0)
}

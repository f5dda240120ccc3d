// Package adapt is the closed-loop adaptation controller: the layer
// that turns the paper's downloadable protocols from an operator tool
// into a feedback system. It watches running nodes through planpd's
// GET /stats, judges what it sees with pure functions over metric
// windows, and acts through the internal/fleet rollout machinery —
// never touching a node except via the same two-phase deploys an
// operator would issue.
//
// The loop is the self-promoting canary (canary.go): stage a candidate
// on a cohort, watch operator-declared guard metrics for a few windows
// against the baseline cohort, then promote fleet-wide or roll back.
// POST /adapt (http.go) and `planpd adapt` start one.
//
// Every decision input is a Window (two mono_ns-stamped snapshots),
// every decision function is pure and the loop's sleep is injected, so
// verdicts are reproducible from the snapshots that produced them and
// the whole controller unit-tests without sleeping. Every action lands
// in the fleet history (kinds "canary", "promote", "rollback"), and
// each decision is one obs event (KindCanary) with its reason, so the
// adaptation story can be told after the fact. See ADAPTATION.md.
package adapt

import (
	"context"
	"slices"
	"sync"
	"time"

	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/obs"
)

// Controller runs canary loops against one fleet. It acts only through
// that fleet.Controller and reports through it too: the polls go out on
// the fleet's HTTP client, the "adapt.*" counters live in its registry,
// and decisions reach the bus through its one serialized Publish.
type Controller struct {
	fleet *fleet.Controller

	// Injected clock: tests replace it to run the loop without real
	// time passing.
	sleepFn func(context.Context, time.Duration)

	ctCanaries, ctPromoted, ctRolledBack, ctFailed *obs.Counter
	ctWindowsOK, ctWindowsViolation                *obs.Counter

	mu     sync.Mutex
	runs   []*Run
	nextID int

	// Runs started over HTTP outlive their request: they live under bg,
	// which Drain cancels once shutdown will wait no longer, and are
	// counted in bgWG so Drain can wait for them to exit.
	bg       context.Context
	bgCancel context.CancelFunc
	bgWG     sync.WaitGroup
}

// New returns a Controller driving fl, which executes every
// deploy/promote/rollback the controller decides on and records them
// in its history.
func New(fl *fleet.Controller) *Controller {
	reg := fl.Metrics()
	bg, bgCancel := context.WithCancel(context.Background())
	return &Controller{
		fleet:    fl,
		sleepFn:  fleet.Sleep,
		nextID:   1,
		bg:       bg,
		bgCancel: bgCancel,

		ctCanaries:         reg.Counter("adapt.canaries"),
		ctPromoted:         reg.Counter("adapt.promoted"),
		ctRolledBack:       reg.Counter("adapt.rolled_back"),
		ctFailed:           reg.Counter("adapt.failed"),
		ctWindowsOK:        reg.Counter("adapt.windows_ok"),
		ctWindowsViolation: reg.Counter("adapt.windows_violation"),
	}
}

// Drain waits for every background canary run to finish. When ctx
// expires first, the remaining runs are canceled (their rollbacks run
// under contexts detached from the cancellation) and Drain waits for
// them to exit. It reports whether every run completed without being
// cut short — the graceful-shutdown path: stop accepting requests,
// Drain, then close the substrate.
func (c *Controller) Drain(ctx context.Context) bool {
	done := make(chan struct{})
	go func() {
		c.bgWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
	}
	c.bgCancel()
	<-done
	return false
}

// ---------------------------------------------------------------------------
// Run records: what GET /adapt reports.

// maxRuns bounds the run records a Controller keeps, and the runs
// POST /adapt lets be in progress at once. Anyone who can reach POST
// /adapt can start a run, so past the bound the oldest finished run
// gives way; a run in progress is never dropped, because `planpd adapt`
// stops polling once its run is no longer listed.
const maxRuns = 64

// RunView is a consistent snapshot of one canary run.
type RunView struct {
	ID      int    `json:"id"`
	Version string `json:"version"`
	Canary  string `json:"canary"`
	Phase   string `json:"phase"` // deploying, observing, promoting, rolling-back, done
	// WindowsDone counts fully judged healthy windows of WindowsTotal.
	WindowsDone  int `json:"windows_done"`
	WindowsTotal int `json:"windows_total"`
	// Verdict and Reason are set once the run is done.
	Verdict    string   `json:"verdict,omitempty"`
	Reason     string   `json:"reason,omitempty"`
	Violations []string `json:"violations,omitempty"`
	// Deployment IDs in the fleet history: the canary rollout and the
	// follow-up (promote or rollback) record.
	CanaryDeployment int `json:"canary_deployment,omitempty"`
	FinalDeployment  int `json:"final_deployment,omitempty"`
}

// Run is one canary run's live record.
type Run struct {
	mu   sync.Mutex
	view RunView
}

// View snapshots the run.
func (r *Run) View() RunView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.view
	v.Violations = append([]string(nil), r.view.Violations...)
	return v
}

// update is the one writer of a run record: f edits it under the lock.
func (r *Run) update(f func(v *RunView)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(&r.view)
}

// finished reports whether the run has reached its verdict.
func (r *Run) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view.Phase == "done"
}

// ref names the run in its events' Detail ("a<id>").
func (r *Run) ref() fleet.Ref { return fleet.Ref{Tag: 'a', ID: r.view.ID} }

// newRun registers a run record for plan, first resolving the plan's
// defaults — the one place they are — so the record, the HTTP
// handler's deadline and the loop all see the same numbers.
func (c *Controller) newRun(plan *CanaryPlan) *Run { return c.addRun(plan, false) }

// addRun is newRun; a capped run is refused — nil, nothing registered —
// while maxRuns runs are in progress.
func (c *Controller) addRun(plan *CanaryPlan, capped bool) *Run {
	if plan.Windows <= 0 {
		plan.Windows = 3
	}
	if plan.Interval <= 0 {
		plan.Interval = 2 * time.Second
	}
	r := &Run{view: RunView{
		Version:      plan.Spec.Version,
		Canary:       targetNames(plan.Canary),
		Phase:        "deploying",
		WindowsTotal: plan.Windows,
	}}
	c.mu.Lock()
	defer c.mu.Unlock()
	if capped && c.inProgress() >= maxRuns {
		return nil
	}
	r.view.ID = c.nextID
	c.nextID++
	c.runs = append(c.runs, r)
	c.trimRuns()
	return r
}

// inProgress counts the runs not yet finished; c.mu is held. trimRuns
// never drops one, so all of them are in c.runs.
func (c *Controller) inProgress() int {
	n := 0
	for _, r := range c.runs {
		if !r.finished() {
			n++
		}
	}
	return n
}

// trimRuns drops the oldest finished runs past maxRuns; c.mu is held.
// It runs when a run starts and when one finishes, so the list is over
// the bound only while more than maxRuns runs are in progress.
func (c *Controller) trimRuns() {
	for len(c.runs) > maxRuns {
		i := slices.IndexFunc(c.runs, (*Run).finished)
		if i < 0 {
			return
		}
		c.runs = slices.Delete(c.runs, i, i+1)
	}
}

// Runs returns snapshots of the kept canary runs (see maxRuns), oldest
// first.
func (c *Controller) Runs() []RunView {
	c.mu.Lock()
	runs := append([]*Run(nil), c.runs...)
	c.mu.Unlock()
	views := make([]RunView, len(runs))
	for i, r := range runs {
		views[i] = r.View()
	}
	return views
}

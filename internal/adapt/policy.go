// The adaptation policy engine: pick which protocol variant should run
// from observed metric trends, and redeploy when the pick changes.
//
// This is the paper's §5 promise made closed-loop: the gateway's
// round-robin / least-connections / failover variants differ by one
// downloadable ASP, so *choosing* between them is a control decision,
// not an upgrade project. The decision itself (DecideFunc) and the
// debouncing state machine (Selector) are pure over metric Windows and
// an explicit clock, so a sequence of snapshots replays to the same
// sequence of switches every time. The Controller's RunPolicy loop adds
// the impure shell: poll /stats, decide, and drive internal/fleet when
// the selector commits to a change.
package adapt

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planpd"
)

// Candidate is one deployable protocol variant the policy engine may
// select — a name plus everything fleet needs to roll it out.
type Candidate struct {
	Name   string
	Source string
	Engine string
	Verify string
}

// DecideFunc inspects one round's windows (keyed by node name) and
// returns the name of the candidate that should be running, or "" for
// no opinion. It must be pure: no clocks, no I/O, no retained state —
// the Selector owns all memory between rounds.
type DecideFunc func(windows map[string]Window) string

// Selector is the anti-flapping state machine between raw per-window
// preferences and actual redeploys. A switch requires the same
// non-current candidate to be preferred for Hysteresis consecutive
// windows, and at least Cooldown to have passed since the last
// committed switch. Time enters only through the explicit now
// arguments, never a clock, so tests replay decisions deterministically.
//
// Observe proposes; Commit disposes: Observe never mutates the current
// candidate, so a failed redeploy leaves the selector still demanding
// the switch on the next round instead of believing a deploy that
// never happened.
type Selector struct {
	Hysteresis int
	Cooldown   time.Duration

	current    string
	streakFor  string
	streakLen  int
	lastSwitch time.Time
	switched   bool // lastSwitch is meaningful
}

// NewSelector returns a selector currently running `initial`, requiring
// hysteresis consecutive windows (min 1) and cooldown between switches.
func NewSelector(initial string, hysteresis int, cooldown time.Duration) *Selector {
	if hysteresis < 1 {
		hysteresis = 1
	}
	return &Selector{Hysteresis: hysteresis, Cooldown: cooldown, current: initial}
}

// Current returns the candidate the selector believes is running.
func (s *Selector) Current() string { return s.current }

// Streak returns how many consecutive windows have preferred the same
// non-current candidate (for reports and logs).
func (s *Selector) Streak() (candidate string, length int) {
	return s.streakFor, s.streakLen
}

// Observe feeds one window's preference at time now and returns the
// candidate to switch to, or "" to hold. A preference for the current
// candidate (or no opinion) resets the streak — hysteresis counts
// *consecutive* dissent. The cooldown gates the commit, not the
// streak: dissent keeps accumulating during cooldown and the switch
// fires on the first eligible observation after it expires.
func (s *Selector) Observe(pref string, now time.Time) (switchTo string) {
	if pref == "" || pref == s.current {
		s.streakFor, s.streakLen = "", 0
		return ""
	}
	if pref != s.streakFor {
		s.streakFor, s.streakLen = pref, 0
	}
	s.streakLen++
	if s.streakLen < s.Hysteresis {
		return ""
	}
	if s.switched && now.Sub(s.lastSwitch) < s.Cooldown {
		return ""
	}
	return pref
}

// Commit records that the switch to name took effect at now. The
// caller invokes it only after the redeploy succeeded.
func (s *Selector) Commit(name string, now time.Time) {
	s.current = name
	s.streakFor, s.streakLen = "", 0
	s.lastSwitch, s.switched = now, true
}

// PolicyPlan configures one RunPolicy loop.
type PolicyPlan struct {
	// Candidates the policy may select among. Decide must return one of
	// their names (or "").
	Candidates []Candidate
	Decide     DecideFunc
	// Current names the candidate running before the loop starts.
	Current string

	// Targets receive the redeploy when the selection changes.
	Targets []fleet.Target
	// Stats lists the nodes whose GET /stats feed each round's windows;
	// defaults to Targets. (In clusters sharing one registry, a single
	// entry suffices — per-node counters are name-prefixed.)
	Stats []fleet.Target

	// Interval is the window length (default 2s); Rounds bounds the loop
	// (0: run until the context is canceled).
	Interval time.Duration
	Rounds   int

	// Hysteresis (default 2) and Cooldown (default 2*Interval) debounce
	// switches; see Selector.
	Hysteresis int
	Cooldown   time.Duration
}

// Switch records one committed variant change.
type Switch struct {
	Round      int    `json:"round"`
	From       string `json:"from"`
	To         string `json:"to"`
	Deployment int    `json:"deployment"`
}

// PolicyReport summarizes a finished RunPolicy loop.
type PolicyReport struct {
	Rounds   int      `json:"rounds"`
	Final    string   `json:"final"`
	Switches []Switch `json:"switches"`
}

// RunPolicy runs the observe→decide→redeploy loop until Rounds rounds
// have run or ctx is canceled (which is a normal exit, not an error).
// Each committed switch is recorded in the fleet history as a
// deployment of kind "adapt" whose reason names the trend that caused
// it; holds and switches are published as KindAdapt events.
func (c *Controller) RunPolicy(ctx context.Context, plan PolicyPlan) (*PolicyReport, error) {
	if len(plan.Candidates) == 0 || plan.Decide == nil {
		return nil, errors.New("adapt: policy needs candidates and a decide function")
	}
	if len(plan.Targets) == 0 {
		return nil, errors.New("adapt: policy needs redeploy targets")
	}
	byName := make(map[string]Candidate, len(plan.Candidates))
	for _, cand := range plan.Candidates {
		byName[cand.Name] = cand
	}
	if plan.Interval <= 0 {
		plan.Interval = 2 * time.Second
	}
	if plan.Hysteresis <= 0 {
		plan.Hysteresis = 2
	}
	if plan.Cooldown <= 0 {
		plan.Cooldown = 2 * plan.Interval
	}
	stats := plan.Stats
	if len(stats) == 0 {
		stats = plan.Targets
	}

	sel := NewSelector(plan.Current, plan.Hysteresis, plan.Cooldown)
	report := &PolicyReport{Final: plan.Current}
	prev, err := c.snapshotAll(ctx, stats)
	if err != nil {
		return nil, fmt.Errorf("adapt: policy baseline snapshot: %w", err)
	}

	for round := 1; plan.Rounds == 0 || round <= plan.Rounds; round++ {
		c.sleepFn(ctx, plan.Interval)
		if ctx.Err() != nil {
			break
		}
		cur, err := c.snapshotAll(ctx, stats)
		if err != nil {
			// A blind round: keep the loop alive, but feed the selector
			// "no opinion" so blindness never accumulates toward a switch.
			c.fleet.Publish(obs.KindAdapt, "", fleet.Ref{}, "blind: round ", strconv.Itoa(round), ": stats poll failed: ", err.Error())
			sel.Observe("", c.now())
			report.Rounds = round
			continue
		}
		windows := pairWindows(prev, cur)
		prev = cur

		pref := plan.Decide(windows)
		report.Rounds = round
		switchTo := sel.Observe(pref, c.now())
		if switchTo == "" {
			c.ctHolds.Inc()
			c.fleet.Publish(obs.KindAdapt, "", fleet.Ref{}, "hold:", sel.Current())
			continue
		}
		cand, ok := byName[switchTo]
		if !ok {
			c.fleet.Publish(obs.KindAdapt, "", fleet.Ref{}, "unknown-candidate: ", switchTo)
			continue
		}
		from := sel.Current()
		_, streak := sel.Streak()
		spec := fleet.Spec{
			Version: fmt.Sprintf("%s-r%d", cand.Name, round),
			Source:  cand.Source, Engine: cand.Engine, Verify: cand.Verify,
			Kind:   "adapt",
			Reason: fmt.Sprintf("policy preferred %s over %s for %d consecutive window(s)", cand.Name, from, streak),
		}
		d, err := c.fleet.Deploy(ctx, spec, plan.Targets)
		if err != nil {
			// The fleet converged back to the old variant; the selector
			// still holds `from` and will re-demand the switch next round.
			c.fleet.Publish(obs.KindAdapt, "", d.Ref(), "switch-failed:", from, "->", cand.Name, ": ", err.Error())
			continue
		}
		c.fleet.Publish(obs.KindAdapt, "", d.Ref(), "switch:", from, "->", cand.Name, ": ", spec.Reason)
		sel.Commit(cand.Name, c.now())
		c.ctSwitches.Inc()
		report.Switches = append(report.Switches, Switch{Round: round, From: from, To: cand.Name, Deployment: d.View().ID})
	}
	report.Final = sel.Current()
	return report, nil
}

// snapshotAll polls every stats target once; any failure fails the
// round (partial windows would silently bias cohort means).
func (c *Controller) snapshotAll(ctx context.Context, targets []fleet.Target) (map[string]Snapshot, error) {
	out := make(map[string]Snapshot, len(targets))
	for _, t := range targets {
		s, err := c.poll(ctx, t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name, err)
		}
		out[t.Name] = s
	}
	return out, nil
}

// poll reads one target's GET /stats through the control-plane client.
func (c *Controller) poll(ctx context.Context, t fleet.Target) (s Snapshot, err error) {
	err = planpd.Exchange(ctx, c.fleet.Client(), "stats", http.MethodGet,
		strings.TrimRight(t.URL, "/")+"/stats", "", maxStatsBody, &s)
	return s, err
}

// pairWindows matches two snapshot rounds into per-node windows,
// dropping nodes missing from either round.
func pairWindows(prev, cur map[string]Snapshot) map[string]Window {
	windows := make(map[string]Window, len(cur))
	for name, after := range cur {
		before, ok := prev[name]
		if !ok {
			continue
		}
		windows[name] = Window{Before: before, After: after}
	}
	return windows
}

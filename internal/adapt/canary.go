// The self-promoting canary: stage a candidate on a small cohort, watch
// operator-declared guard metrics for a few windows against the
// baseline cohort, then promote fleet-wide or roll back — the full §4
// "adapt a running network" story with the judgment call automated.
//
// The loop's shape keeps every verdict explainable: deploys and
// rollbacks are ordinary fleet history records (kinds "canary",
// "promote", "rollback"), each window's judgment is a pure EvalGuards
// call over snapshots, and the final Outcome carries the violations
// that decided it — published once, as the run's verdict event.
package adapt

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/obs"
	"planp.dev/planp/internal/planpd"
)

// Canary verdicts.
const (
	// VerdictPromoted: every window passed and the candidate now runs
	// fleet-wide.
	VerdictPromoted = "promoted"
	// VerdictRolledBack: a guard violated (or the canary went
	// unobservable, or promotion failed) and the canary cohort was
	// returned to its previous version.
	VerdictRolledBack = "rolled-back"
	// VerdictFailed: the run could not reach a clean end state — the
	// canary deploy itself failed, or a rollback did not converge.
	VerdictFailed = "failed"
)

// CanaryPlan configures one canary run.
type CanaryPlan struct {
	// Spec is the candidate rollout; its Kind is forced to "canary".
	Spec fleet.Spec
	// Canary is the cohort that stages the candidate; Baseline is the
	// comparison cohort (it keeps running the incumbent and receives the
	// promote rollout on success). Baseline may be empty: guards then
	// have no relative comparison and promotion is canary-only.
	Canary   []fleet.Target
	Baseline []fleet.Target
	// Guards declare what "healthy" means; an empty list auto-promotes
	// after the observation windows (useful only for drills).
	Guards []Guard
	// Windows (default 3) observation windows of Interval (default 2s)
	// each.
	Windows  int
	Interval time.Duration
}

// Outcome is a finished canary run.
type Outcome struct {
	Verdict    string
	Reason     string
	Violations []Violation
	// Canary is the cohort rollout record; Final is the follow-up record
	// (the promote deploy or the rollback), nil when there was none.
	Canary *fleet.Deployment
	Final  *fleet.Deployment
}

// Canary runs one self-promoting canary rollout to completion. The
// returned error is non-nil only for VerdictFailed — a rollback verdict
// is the controller doing its job, not an error.
func (c *Controller) Canary(ctx context.Context, plan CanaryPlan) (*Outcome, error) {
	return c.canaryRun(ctx, plan, c.newRun(&plan))
}

// canaryRun drives one run against its record (newRun has resolved the
// plan's defaults).
func (c *Controller) canaryRun(ctx context.Context, plan CanaryPlan, run *Run) (*Outcome, error) {
	if len(plan.Canary) == 0 {
		_, err := c.finish(run, &Outcome{Verdict: VerdictFailed, Reason: "canary needs at least one canary target"})
		return nil, err
	}
	spec := plan.Spec
	spec.Kind = "canary"
	if spec.Reason == "" {
		spec.Reason = fmt.Sprintf("canary on %d of %d node(s), %d window(s) of %s",
			len(plan.Canary), len(plan.Canary)+len(plan.Baseline), plan.Windows, plan.Interval)
	}

	// Stage + activate on the canary cohort. A failure here is already
	// converged by fleet's own in-flight rollback.
	c.ctCanaries.Inc()
	canaryDep, err := c.fleet.Deploy(ctx, spec, plan.Canary)
	if canaryDep != nil {
		dv := canaryDep.View()    // the fleet may have auto-assigned the version label,
		spec.Version = dv.Version // which the promote rollout must then carry too
		run.update(func(v *RunView) { v.CanaryDeployment, v.Version = dv.ID, dv.Version })
	}
	if err != nil {
		c.ctFailed.Inc()
		return c.finish(run, &Outcome{Verdict: VerdictFailed, Reason: fmt.Sprintf("canary deploy failed: %v", err), Canary: canaryDep})
	}
	c.announce(run, plan.Canary, "active: version ", spec.Version, " (", spec.Reason, ")")

	// Observe: consecutive windows of (canary, baseline) snapshots,
	// judged by the pure guard evaluator. An unobservable canary node is
	// itself a violation — a canary that cannot be watched cannot be
	// promoted.
	run.update(func(v *RunView) { v.Phase = "observing" })
	prevCanary, prevBase, err := c.snapshotCohorts(ctx, run, plan)
	if err != nil {
		return c.revoke(ctx, run, canaryDep, nil, fmt.Sprintf("canary unobservable: %v", err))
	}
	for w := 1; w <= plan.Windows; w++ {
		c.sleepFn(ctx, plan.Interval)
		if err := ctx.Err(); err != nil {
			return c.revoke(ctx, run, canaryDep, nil, fmt.Sprintf("canceled during window %d: %v", w, err))
		}
		curCanary, curBase, err := c.snapshotCohorts(ctx, run, plan)
		if err != nil {
			c.announce(run, plan.Canary, "unobservable")
			return c.revoke(ctx, run, canaryDep, nil, fmt.Sprintf("canary unobservable in window %d: %v", w, err))
		}
		canaryWin := pairWindows(prevCanary, curCanary)
		baseWin := pairWindows(prevBase, curBase)
		prevCanary, prevBase = curCanary, curBase

		viols := EvalGuards(plan.Guards, canaryWin, baseWin)
		if len(viols) > 0 {
			c.ctWindowsViolation.Inc()
			c.announce(run, plan.Canary, "window:", strconv.Itoa(w), ":violation")
			reasons := make([]string, len(viols))
			for i, v := range viols {
				reasons[i] = v.String()
			}
			return c.revoke(ctx, run, canaryDep, viols,
				fmt.Sprintf("guard violated in window %d/%d: %s", w, plan.Windows, strings.Join(reasons, "; ")))
		}
		c.ctWindowsOK.Inc()
		run.update(func(v *RunView) { v.WindowsDone = w })
		c.announce(run, plan.Canary, "window:", strconv.Itoa(w), ":ok")
	}

	// Promote: extend the candidate to the baseline cohort. The canary
	// cohort already runs it, so convergence is the whole fleet on one
	// version. A failed promotion revokes the canary too — a clean
	// all-old fleet beats a wedged mixed one.
	reason := fmt.Sprintf("canary %s healthy for %d window(s) on %s", spec.Version, plan.Windows, targetNames(plan.Canary))
	var finalDep *fleet.Deployment
	if len(plan.Baseline) > 0 {
		run.update(func(v *RunView) { v.Phase = "promoting" })
		promote := spec
		promote.Kind = "promote"
		promote.Reason = reason
		finalDep, err = c.fleet.Deploy(ctx, promote, plan.Baseline)
		if err != nil {
			return c.revoke(ctx, run, canaryDep, nil, fmt.Sprintf("promotion failed, revoking canary: %v", err))
		}
	}
	c.ctPromoted.Inc()
	return c.finish(run, &Outcome{Verdict: VerdictPromoted, Reason: reason, Canary: canaryDep, Final: finalDep})
}

// revoke rolls the canary cohort back and closes the run with a
// rolled-back (or, if even the rollback failed, failed) outcome.
func (c *Controller) revoke(ctx context.Context, run *Run, canaryDep *fleet.Deployment, viols []Violation, reason string) (*Outcome, error) {
	run.update(func(v *RunView) { v.Phase = "rolling-back" })
	// The deadline that canceled the observation must not also doom the
	// rollback; revocation gets its own context.
	rbCtx := ctx
	if rbCtx.Err() != nil {
		rbCtx = context.WithoutCancel(ctx)
	}
	rb, err := c.fleet.RollbackDeployment(rbCtx, canaryDep, reason)
	out := &Outcome{Verdict: VerdictRolledBack, Reason: reason, Violations: viols, Canary: canaryDep, Final: rb}
	if err != nil {
		c.ctFailed.Inc()
		out.Verdict = VerdictFailed
		out.Reason = fmt.Sprintf("%s; rollback did not converge: %v", reason, err)
	} else {
		c.ctRolledBack.Inc()
	}
	return c.finish(run, out)
}

// finish closes the run's record, publishes its verdict and returns it,
// with an error for VerdictFailed.
func (c *Controller) finish(r *Run, out *Outcome) (*Outcome, error) {
	r.update(func(v *RunView) {
		v.Phase, v.Verdict, v.Reason = "done", out.Verdict, out.Reason
		for _, viol := range out.Violations {
			v.Violations = append(v.Violations, viol.String())
		}
		if out.Final != nil {
			v.FinalDeployment = out.Final.View().ID
		}
	})
	c.mu.Lock()
	c.trimRuns()
	c.mu.Unlock()
	c.fleet.Publish(obs.KindCanary, "", r.ref(), out.Verdict, ": ", out.Reason)
	if out.Verdict == VerdictFailed {
		return out, fmt.Errorf("adapt: %s", out.Reason)
	}
	return out, nil
}

// snapshotCohorts polls both cohorts' stats. Canary failures are fatal
// to the run (reported as the returned error); a baseline node that
// cannot be polled merely drops out of the comparison mean.
func (c *Controller) snapshotCohorts(ctx context.Context, run *Run, plan CanaryPlan) (canary, baseline map[string]Snapshot, err error) {
	if canary, err = c.snapshotAll(ctx, plan.Canary); err != nil {
		return nil, nil, err
	}
	baseline = make(map[string]Snapshot, len(plan.Baseline))
	for _, t := range plan.Baseline {
		s, err := c.poll(ctx, t)
		if err != nil {
			c.fleet.Publish(obs.KindCanary, t.Name, run.ref(), "baseline-unobservable: ", err.Error())
			continue
		}
		baseline[t.Name] = s
	}
	return canary, baseline, nil
}

// snapshotAll polls every stats target once; any failure fails the
// window (partial windows would silently bias cohort means).
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

// announce publishes one canary event per node of the cohort.
func (c *Controller) announce(run *Run, cohort []fleet.Target, parts ...string) {
	for _, t := range cohort {
		c.fleet.Publish(obs.KindCanary, t.Name, run.ref(), parts...)
	}
}

func targetNames(ts []fleet.Target) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return strings.Join(names, ",")
}

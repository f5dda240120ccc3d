// Post-deployment rollback: undoing a rollout that already converged.
//
// The rollback paths inside Deploy handle rollouts that fail while in
// flight. A canary rollout fails differently: the deployment converged
// — every canary node activated — and only later, after windows of
// guard metrics, does the adaptation controller decide the new version
// must go. RollbackDeployment drives every Active node of a finished
// deployment back to its previous version and records the decision as
// its own history entry (kind "rollback"), so GET /deployments shows
// the full canary story: the canary deploy, then the rollback that
// revoked it, each with its reason.
package fleet

import (
	"context"
	"fmt"
	"strconv"

	"planp.dev/planp/internal/obs"
)

// RollbackDeployment returns every node that deployment d activated to
// its previously active version (POST /asp/rollback — idempotent on the
// node, so retries and replays are safe). It appends a new record of
// kind "rollback" to the controller history, carrying reason, and
// returns it. Nodes that cannot be rolled back are marked Failed on the
// record and an error is returned; the remaining nodes still converge.
func (c *Controller) RollbackDeployment(ctx context.Context, d *Deployment, reason string) (*Deployment, error) {
	if d == nil {
		return nil, fmt.Errorf("fleet: rollback of a nil deployment")
	}
	targets, version := d.targets(), d.view.Version
	if len(targets) == 0 {
		return nil, fmt.Errorf("fleet: deployment %d has no nodes to roll back", d.view.ID)
	}

	spec := Spec{Version: version, Kind: "rollback", Reason: reason}
	rb := c.newDeployment(&spec, targets)
	c.Publish(obs.KindRollback, "", rb.Ref(), "revoke: version ", version, " of deployment ", strconv.Itoa(d.view.ID), ": ", reason)

	errs := c.forEach(rb, func(nc *nodeClient) error {
		res, err := nc.rollback(ctx, version)
		if err != nil {
			nc.mark(NodeFailed, fmt.Errorf("rollback: %w", err))
			c.Publish(obs.KindRollback, nc.Name, rb.Ref(), "failed")
			return err
		}
		nc.update(func(n *NodeView) { n.Status, n.PrevVersion = NodeRolledBack, res.Active })
		c.ctNodeRollbacks.Inc()
		c.Publish(obs.KindRollback, nc.Name, rb.Ref(), "restored:", res.Active)
		return nil
	})
	if err := firstErr(errs); err != nil {
		return rb, c.fail(rb, fmt.Errorf("fleet: rollback of version %s failed on [%s]: %w", version, failedNames(rb, errs), err))
	}
	c.ctRolledBack.Inc()
	c.Publish(obs.KindRollback, "", rb.Ref(), "revoked: version ", version, " on all ", strconv.Itoa(len(targets)), " node(s)")
	return rb, c.finish(rb, StateRolledBack, nil)
}

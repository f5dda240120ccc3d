// The per-node control-plane client: typed wrappers over planpd's one
// client (planpd.Exchange) with retry, exponential backoff, and attempt
// accounting. One nodeClient serves one target within one rollout; all
// its calls run on that target's fan-out worker, so per-node
// bookkeeping needs no locking beyond the deployment record's.
package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"planp.dev/planp/internal/planpd"
)

// maxBody bounds a node's answer: every planpd response body is JSON
// or a one-line error far below it.
const maxBody = 1 << 16

// nodeClient talks to one planpd node for one deployment: the Target,
// and the index of its record in the deployment.
type nodeClient struct {
	c *Controller
	d *Deployment
	i int
	Target
}

// update edits the node's record under the deployment's lock.
func (nc *nodeClient) update(f func(n *NodeView)) {
	nc.d.update(func(v *View) { f(&v.Nodes[nc.i]) })
}

// mark moves the node to st, recording err (when non-nil) as its last
// error.
func (nc *nodeClient) mark(st NodeStatus, err error) {
	nc.update(func(n *NodeView) {
		n.Status = st
		if err != nil {
			n.Error = err.Error()
		}
	})
}

// call performs method path?query against the node through the one
// control-plane client, sending body (when non-empty) and decoding a
// 2xx answer into out (when non-nil). query is already encoded, in
// url.Values.Encode's key order, and empty for none. An answer that never arrived
// whole, and a retryable status, are retried under the controller's
// policy; exhausted retries return the last error. Any other rejection
// (a *planpd.DiagError naming op) and a 2xx that does not decode end
// the exchange.
func (nc *nodeClient) call(ctx context.Context, op, method, path, query, body string, out any) error {
	sep := ""
	if query != "" {
		sep = "?"
	}
	u := strings.TrimRight(nc.URL, "/") + path + sep + query
	p := nc.c.retry
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		if attempt > 1 {
			nc.c.ctRetries.Inc()
			nc.c.sleepFn(ctx, p.Delay(attempt-1, nc.c.rand()))
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		nc.update(func(n *NodeView) { n.Attempts++ })
		err := planpd.Exchange(ctx, nc.c.client, op, method, u, body, maxBody, out)
		if err == nil || !retryable(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%s %s: giving up after %d attempts: %w", method, path, p.Attempts, lastErr)
}

// health probes GET /healthz: the node's active protocol version (empty
// if none) plus that version's channel-interface signature (nil when
// the node is bare or its daemon predates signatures) — the input to
// the deploy-time compatibility gate.
//
// The probe names the signature the controller holds for this node by
// digest. A node still running it answers with the digest alone and the
// held signature stands in; a full answer refreshes what is held. A
// digest-only answer naming a signature the controller does not hold is
// asked again, once, without the digest. A full answer whose digest is
// not its signature's contradicts itself; it fails the probe and is not
// held, so it cannot stand in for what later digest-only answers name.
func (nc *nodeClient) health(ctx context.Context) (h planpd.Health, err error) {
	held := nc.c.heldSignature(nc.URL)
	q := ""
	if held.digest != "" {
		q = "signature=" + url.QueryEscape(held.digest)
	}
	err = nc.call(ctx, "healthz", http.MethodGet, "/healthz", q, "", &h)
	if err == nil && h.Signature == nil && h.SignatureDigest != "" && h.SignatureDigest != held.digest {
		h = planpd.Health{}
		err = nc.call(ctx, "healthz", http.MethodGet, "/healthz", "", "", &h)
	}
	switch {
	case err != nil || h.SignatureDigest == "":
	case h.Signature != nil && h.Signature.Digest() != h.SignatureDigest:
		err = fmt.Errorf("healthz: node %s names signature %s but sends %s", nc.Name, h.SignatureDigest, h.Signature.Digest())
	case h.Signature != nil:
		nc.c.holdSignature(nc.URL, h.SignatureDigest, h.Signature)
	case h.SignatureDigest == held.digest:
		h.Signature = held.sig
	default:
		err = fmt.Errorf("healthz: node names signature %s but sends none", h.SignatureDigest)
	}
	if err == nil && !h.OK {
		err = fmt.Errorf("healthz: node reports not ok")
	}
	return h, err
}

// versionQuery is the query naming version.
func versionQuery(version string) string { return "version=" + url.QueryEscape(version) }

// stage runs phase 1 on the node. The query lists engine and verify,
// when set, ahead of version, as url.Values.Encode sorts them.
func (nc *nodeClient) stage(ctx context.Context, spec Spec) error {
	q := versionQuery(spec.Version)
	if spec.Verify != "" {
		q = "verify=" + url.QueryEscape(spec.Verify) + "&" + q
	}
	if spec.Engine != "" {
		q = "engine=" + url.QueryEscape(spec.Engine) + "&" + q
	}
	return nc.call(ctx, "stage", http.MethodPost, "/asp/stage", q, spec.Source, nil)
}

// abortStage discards a staged version (idempotent).
func (nc *nodeClient) abortStage(ctx context.Context, version string) error {
	return nc.call(ctx, "abort stage", http.MethodDelete, "/asp/stage", versionQuery(version), "", nil)
}

// activate runs phase 2 on the node.
func (nc *nodeClient) activate(ctx context.Context, version string) error {
	return nc.call(ctx, "activate", http.MethodPost, "/asp/activate", versionQuery(version), "", nil)
}

// rollback undoes an activation of version; the answer names the
// version the node runs afterwards (possibly empty: a bare node).
func (nc *nodeClient) rollback(ctx context.Context, version string) (rb planpd.RolledBack, err error) {
	err = nc.call(ctx, "rollback", http.MethodPost, "/asp/rollback", versionQuery(version), "", &rb)
	return rb, err
}

// aspStatus reads GET /asp — the reconciliation source after an
// ambiguous activation (lost response, node death mid-phase).
func (nc *nodeClient) aspStatus(ctx context.Context) (st planpd.Status, err error) {
	err = nc.call(ctx, "status", http.MethodGet, "/asp", "", "", &st)
	return st, err
}

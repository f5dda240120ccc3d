// The per-node control-plane client: typed wrappers over planpd's HTTP
// API with retry, exponential backoff, and attempt accounting. One
// nodeClient serves one target within one rollout; all its calls run on
// that target's fan-out worker, so per-node bookkeeping needs no
// locking beyond the deployment record's.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/planpd"
)

// maxBody bounds a node's answer: every planpd response body is JSON
// or a one-line error far below it.
const maxBody = 1 << 16

// httpResult is one completed (possibly non-2xx) HTTP exchange.
type httpResult struct {
	status int
	body   []byte
}

// DiagError is a control-plane rejection whose response body carried
// structured diagnostics (planpd's 422 bodies). It keeps the individual
// span-carrying records so deploy tooling can point at source lines
// instead of echoing the node's rendered string.
type DiagError struct {
	Op      string
	Status  int
	Message string
	Diags   diag.List
}

func (e *DiagError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.Op, e.Status, e.Message)
}

// Diagnostics implements diag.Provider.
func (e *DiagError) Diagnostics() diag.List { return e.Diags }

func (r *httpResult) err(op string) error {
	if r.status >= 200 && r.status < 300 {
		return nil
	}
	// planpd rejections are a JSON planpd.Reject; anything else
	// (plain-text errors, proxies) degrades to the body.
	var rej planpd.Reject
	if jsonErr := json.Unmarshal(r.body, &rej); jsonErr == nil && rej.Error != "" {
		return &DiagError{Op: op, Status: r.status, Message: rej.Error, Diags: rej.Diagnostics}
	}
	return fmt.Errorf("%s: HTTP %d: %s", op, r.status, strings.TrimSpace(string(r.body)))
}

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

// call performs method path?query against the node, retrying transport
// errors and retryable statuses under the controller's policy;
// exhausted retries return the last error. A non-empty body is sent as
// text/plain, read from the string itself on every attempt. A
// non-retryable status ends the exchange: 2xx is the answer, anything
// else an error naming op.
func (nc *nodeClient) call(ctx context.Context, op, method, path string, query url.Values, body string) (*httpResult, error) {
	u := strings.TrimRight(nc.URL, "/") + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	p := nc.c.retry
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		if attempt > 1 {
			nc.c.ctRetries.Inc()
			nc.c.sleepFn(ctx, p.Delay(attempt-1, nc.c.rand()))
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return nil, err
		}
		if body != "" {
			req.Header.Set("Content-Type", "text/plain")
		}
		nc.update(func(n *NodeView) { n.Attempts++ })
		resp, err := nc.c.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		b, err := planpd.ReadSized(resp.Body, resp.ContentLength, maxBody)
		resp.Body.Close()
		if err != nil {
			// An answer cut short is as good as lost.
			lastErr = fmt.Errorf("%s %s: HTTP %d: reading the answer: %w", method, path, resp.StatusCode, err)
			continue
		}
		if retryableStatus(resp.StatusCode) {
			lastErr = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
			continue
		}
		res := &httpResult{status: resp.StatusCode, body: b}
		return res, res.err(op)
	}
	return nil, fmt.Errorf("%s %s: giving up after %d attempts: %w", method, path, p.Attempts, lastErr)
}

// read is call for the routes whose answer the controller acts on: out
// points at the planpd wire type the route answers with.
func (nc *nodeClient) read(ctx context.Context, op, method, path string, query url.Values, out any) error {
	res, err := nc.call(ctx, op, method, path, query, "")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(res.body, out); err != nil {
		return fmt.Errorf("%s: decoding: %w", op, err)
	}
	return nil
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
// asked again, once, without the digest.
func (nc *nodeClient) health(ctx context.Context) (h planpd.Health, err error) {
	held := nc.c.heldSignature(nc.URL)
	var q url.Values
	if held.digest != "" {
		q = url.Values{"signature": {held.digest}}
	}
	err = nc.read(ctx, "healthz", http.MethodGet, "/healthz", q, &h)
	if err == nil && h.Signature == nil && h.SignatureDigest != "" && h.SignatureDigest != held.digest {
		h = planpd.Health{}
		err = nc.read(ctx, "healthz", http.MethodGet, "/healthz", nil, &h)
	}
	switch {
	case err != nil || h.SignatureDigest == "":
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

// stage runs phase 1 on the node.
func (nc *nodeClient) stage(ctx context.Context, spec Spec) error {
	q := url.Values{"version": {spec.Version}}
	if spec.Engine != "" {
		q.Set("engine", spec.Engine)
	}
	if spec.Verify != "" {
		q.Set("verify", spec.Verify)
	}
	_, err := nc.call(ctx, "stage", http.MethodPost, "/asp/stage", q, spec.Source)
	return err
}

// abortStage discards a staged version (idempotent).
func (nc *nodeClient) abortStage(ctx context.Context, version string) error {
	_, err := nc.call(ctx, "abort stage", http.MethodDelete, "/asp/stage", url.Values{"version": {version}}, "")
	return err
}

// activate runs phase 2 on the node.
func (nc *nodeClient) activate(ctx context.Context, version string) error {
	_, err := nc.call(ctx, "activate", http.MethodPost, "/asp/activate", url.Values{"version": {version}}, "")
	return err
}

// rollback undoes an activation of version; the answer names the
// version the node runs afterwards (possibly empty: a bare node).
func (nc *nodeClient) rollback(ctx context.Context, version string) (rb planpd.RolledBack, err error) {
	err = nc.read(ctx, "rollback", http.MethodPost, "/asp/rollback", url.Values{"version": {version}}, &rb)
	return rb, err
}

// aspStatus reads GET /asp — the reconciliation source after an
// ambiguous activation (lost response, node death mid-phase).
func (nc *nodeClient) aspStatus(ctx context.Context) (st planpd.Status, err error) {
	err = nc.read(ctx, "status", http.MethodGet, "/asp", nil, &st)
	return st, err
}

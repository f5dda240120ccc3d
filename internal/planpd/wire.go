// The wire contract: every JSON body a node's control API answers with,
// declared once, and the one client that reads them. The server encodes
// these; the fleet controller, the adaptation loop and the planpd verbs
// decode the same types through Exchange, so a field cannot be renamed
// on one side only, and an answer is bounded and turned into an error
// in one place. A mixed-version fleet speaks these field names —
// TestWireContract pins them.
package planpd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/typecheck"
)

// Health answers GET /healthz. Signature is the active version's
// channel interface (absent on a bare node): it rides the health probe
// so the fleet's compatibility gate needs no extra round-trip.
// SignatureDigest names it (typecheck.Signature.Digest); a probe that
// sends ?signature=<digest> and names the active one gets the digest
// without the signature it already holds.
type Health struct {
	OK              bool                 `json:"ok"`
	Node            string               `json:"node"`
	ASP             bool                 `json:"asp"`
	Version         string               `json:"version"`
	Signature       *typecheck.Signature `json:"signature,omitempty"`
	SignatureDigest string               `json:"signature_digest,omitempty"`
}

// Status answers GET /asp: the node's version state machine — what
// runs, what is staged, what a rollback would restore.
type Status struct {
	Node      string               `json:"node"`
	ASP       bool                 `json:"asp"`
	Active    string               `json:"active"`
	Staged    string               `json:"staged"`
	Prev      string               `json:"prev"`
	Signature *typecheck.Signature `json:"signature,omitempty"`
}

// Installed answers POST /asp.
type Installed struct {
	Installed bool   `json:"installed"`
	Node      string `json:"node"`
	Engine    string `json:"engine"`
	Version   string `json:"version"`
}

// Withdrawn answers DELETE /asp.
type Withdrawn struct {
	Installed bool   `json:"installed"`
	Node      string `json:"node"`
}

// Staged answers POST /asp/stage (every field) and DELETE /asp/stage
// (whether anything is still staged, and the node).
type Staged struct {
	Staged    bool                 `json:"staged"`
	Version   string               `json:"version,omitempty"`
	Node      string               `json:"node"`
	Engine    string               `json:"engine,omitempty"`
	Signature *typecheck.Signature `json:"signature,omitempty"`
}

// Activated answers POST /asp/activate. Previous names the displaced
// version ("" for a bare node) and is present only when this request
// performed the swap, not on the replay of a lost response.
type Activated struct {
	Active   bool    `json:"active"`
	Version  string  `json:"version"`
	Node     string  `json:"node"`
	Previous *string `json:"previous,omitempty"`
}

// RolledBack answers POST /asp/rollback: whether this request withdrew
// anything, and the version the node runs now ("" for a bare node).
type RolledBack struct {
	RolledBack bool   `json:"rolledback"`
	Active     string `json:"active"`
	Node       string `json:"node"`
}

// Stats answers GET /stats: the node's metrics registry stamped with
// MonoNS, nanoseconds on the node's substrate clock at snapshot time.
type Stats struct {
	Node   string           `json:"node"`
	MonoNS int64            `json:"mono_ns"`
	Stats  map[string]int64 `json:"stats"`
}

// Reject is the body of a 422: the rendered error plus the individual
// span-carrying diagnostics, so deploy tooling can point at the
// offending source lines instead of echoing one opaque string.
type Reject struct {
	Error       string    `json:"error"`
	Diagnostics diag.List `json:"diagnostics,omitempty"`
}

// DiagError is an answer whose status is not 2xx, as Exchange returns
// it. A Reject body keeps its message and its span-carrying
// diagnostics, so deploy tooling can point at source lines instead of
// echoing the server's rendered string; any other body (a plain-text
// error, a proxy's page) keeps its trimmed text and carries none. Body
// is the answer as read, for a caller whose rejections say more than a
// Reject does (POST /deploy's carries the rollout's record).
type DiagError struct {
	Op      string
	Status  int
	Message string
	Diags   diag.List
	Body    []byte
}

func (e *DiagError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.Op, e.Status, e.Message)
}

// Diagnostics implements diag.Provider.
func (e *DiagError) Diagnostics() diag.List { return e.Diags }

// rejection decodes a non-2xx answer to the request named op.
func rejection(op string, status int, body []byte) *DiagError {
	var rej Reject
	if json.Unmarshal(body, &rej) != nil || rej.Error == "" {
		rej = Reject{Error: strings.TrimSpace(string(body))}
	}
	return &DiagError{Op: op, Status: status, Message: rej.Error, Diags: rej.Diagnostics, Body: body}
}

// ErrNoAnswer marks an exchange that got no whole answer: the request
// was not delivered or its answer was lost, or the body ended short of
// its Content-Length or ran over the caller's bound. Such a failure is
// no verdict of the server's, so a caller may send the request again.
var ErrNoAnswer = errors.New("no complete answer")

// noAnswer wraps a failure as ErrNoAnswer, keeping its text.
type noAnswer struct{ error }

func (e noAnswer) Unwrap() []error { return []error{ErrNoAnswer, e.error} }

// Exchange is the control plane's one client. It sends method target on
// client under ctx, with body (when non-empty) as text/plain, and reads
// the answer with ReadSized under limit bytes. A 2xx answer is decoded
// into out unless out is nil; one that does not decode is an error
// naming op. Any other status is a *DiagError naming op, and an answer
// that never arrived whole is an ErrNoAnswer (an oversized one wraps
// ErrTooLarge as well). Exchange sends once: retrying is the caller's
// call.
func Exchange(ctx context.Context, client *http.Client, op, method, target, body string, limit int, out any) error {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return err
	}
	if body != "" {
		req.Header.Set("Content-Type", "text/plain")
	}
	resp, err := client.Do(req)
	if err != nil {
		return noAnswer{err}
	}
	b, err := ReadSized(resp.Body, resp.ContentLength, limit)
	resp.Body.Close()
	switch {
	case err != nil:
		return noAnswer{fmt.Errorf("%s: HTTP %d: reading the answer: %w", op, resp.StatusCode, err)}
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		return rejection(op, resp.StatusCode, b)
	case out != nil:
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s: decoding: %w", op, err)
		}
	}
	return nil
}

// The wire contract: every JSON body a node's control API answers with,
// declared once. The server encodes these; the fleet controller and the
// adaptation loop decode the same types, so a field cannot be renamed
// on one side only. A mixed-version fleet speaks these field names —
// TestWireContract pins them.
package planpd

import (
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

// Package planpd is the ASP download daemon: the control plane that
// makes "active networking" operational. It exposes a small HTTP API
// over one live substrate node — download a PLAN-P protocol onto it
// (compile, late-check, install: §2.1's download-time pipeline),
// withdraw it, and read its counters — while the node keeps processing
// real traffic on the real-time backend (internal/rtnet).
//
// This is the reproduction's stand-in for the paper's protocol
// management daemon on the Solaris kernel module (§4): the transport is
// HTTP instead of the paper's authenticated channel, but the lifecycle
// is the same — a protocol arrives as source over the wire, is verified
// and compiled on the node, and starts intercepting packets without the
// node ever stopping.
//
// Beyond the one-shot install path, the server implements the node half
// of the fleet rollout protocol (internal/fleet): a protocol version
// can be STAGED — verified and compiled but not yet intercepting
// packets — and later ACTIVATED or aborted, with the previously active
// version retained for rollback. See docs/DEPLOYMENT.md for the state
// machine and the two-phase commit built on top of it.
package planpd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/planprt"
	"planp.dev/planp/internal/substrate"
)

// maxASPSource bounds an uploaded protocol: far above any real ASP
// (the largest in-tree program is ~5 KB) while keeping hostile uploads
// cheap to reject.
const maxASPSource = 1 << 20

// installed is one protocol version known to the node: staged (rt nil),
// active (rt set), or retained as the rollback target.
type installed struct {
	version string
	source  string
	cfg     planprt.Config
	prog    *planprt.Program
	rt      *planprt.Runtime
}

// Server is the control-plane HTTP API for one node.
type Server struct {
	node substrate.Node
	out  io.Writer // ASP print/println destination

	mu     sync.Mutex
	active *installed // currently intercepting packets, or nil
	staged *installed // loaded but not activated, or nil
	prev   *installed // previously active version (rollback target)
}

// NewServer returns a control server managing node. out receives the
// installed protocol's print output (nil discards it).
func NewServer(node substrate.Node, out io.Writer) *Server {
	if out == nil {
		out = io.Discard
	}
	return &Server{node: node, out: out}
}

// Handler returns the control API:
//
//	POST   /asp           install the PLAN-P source in the request body
//	                      (query: engine=interp|bytecode|jit,
//	                              verify=network|single|privileged,
//	                              version=<label>)
//	GET    /asp           protocol status (active/staged/prev versions)
//	DELETE /asp           withdraw the installed protocol
//	POST   /asp/stage     phase 1 of a rollout: verify + compile the
//	                      body under ?version= without activating
//	DELETE /asp/stage     abort a staged version
//	POST   /asp/activate  phase 2: swap the staged ?version= in,
//	                      retaining the previous version for rollback
//	POST   /asp/rollback  undo an activation of ?version=, restoring
//	                      the previously active version (or bare node)
//	GET    /stats         metrics registry snapshot: {"node", "mono_ns"
//	                      (ns on the node's substrate clock — carries
//	                      chaos-injected skew), "stats": {name -> value}}
//	GET    /healthz       liveness, installed protocol, active version
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /asp", s.install)
	mux.HandleFunc("GET /asp", s.status)
	mux.HandleFunc("DELETE /asp", s.uninstall)
	mux.HandleFunc("POST /asp/stage", s.stage)
	mux.HandleFunc("DELETE /asp/stage", s.abortStage)
	mux.HandleFunc("POST /asp/activate", s.handleActivate)
	mux.HandleFunc("POST /asp/rollback", s.handleRollback)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// ReadBody reads a request body of at most limit bytes. On failure it
// has already written the HTTP error: 413 for a body over the limit —
// the one answer every upload route gives — and 400 for one that
// cannot be read.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(limit)+1))
	switch {
	case err != nil:
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
	case len(body) > limit:
		http.Error(w, fmt.Sprintf("body over %d bytes", limit), http.StatusRequestEntityTooLarge)
	default:
		return body, true
	}
	return nil, false
}

// readProtocol reads and bounds the uploaded source and decodes the
// engine/verify query parameters. On failure it has already written the
// HTTP error.
func (s *Server) readProtocol(w http.ResponseWriter, r *http.Request) (src string, cfg planprt.Config, ok bool) {
	body, ok := ReadBody(w, r, maxASPSource)
	if !ok {
		return "", cfg, false
	}
	q := r.URL.Query()
	cfg, err := planprt.ParseConfig(q.Get("engine"), q.Get("verify"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return "", cfg, false
	}
	cfg.Output = s.out
	return string(body), cfg, true
}

// install is the one-shot download path: load (compile without
// activate) and activate in a single request. It refuses to replace a
// running protocol — upgrades go through stage/activate.
func (s *Server) install(w http.ResponseWriter, r *http.Request) {
	src, cfg, ok := s.readProtocol(w, r)
	if !ok {
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.node.CurrentProcessor() != nil {
		http.Error(w, "node already runs a protocol (DELETE /asp first, or stage/activate to upgrade)", http.StatusConflict)
		return
	}
	prog, err := planprt.Load(src, cfg)
	if err != nil {
		// Parse/type/verify rejection: the protocol is at fault, not
		// the request framing.
		writeReject(w, http.StatusUnprocessableEntity, fmt.Sprintf("download rejected: %v", err), err)
		return
	}
	rt, err := planprt.Install(s.node, prog, s.out)
	if err != nil {
		writeReject(w, http.StatusUnprocessableEntity, fmt.Sprintf("install rejected: %v", err), err)
		return
	}
	s.active = &installed{
		version: r.URL.Query().Get("version"),
		source:  src, cfg: cfg, prog: prog, rt: rt,
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"installed": true,
		"node":      s.node.Hostname(),
		"engine":    string(cfg.Engine),
		"version":   s.active.version,
	})
}

func (s *Server) uninstall(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		http.Error(w, "no protocol installed", http.StatusNotFound)
		return
	}
	s.active.rt.Uninstall()
	s.active.rt = nil
	s.active = nil
	writeJSON(w, http.StatusOK, map[string]any{
		"installed": false,
		"node":      s.node.Hostname(),
	})
}

// status reports the node's protocol state machine: which version is
// active, which is staged, and which would a rollback restore. The
// fleet controller reconciles ambiguous activations (lost responses,
// nodes dying mid-phase) against this.
func (s *Server) status(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := map[string]any{
		"node":   s.node.Hostname(),
		"asp":    s.active != nil,
		"active": versionOf(s.active),
		"staged": versionOf(s.staged),
		"prev":   versionOf(s.prev),
	}
	// The active version's channel-interface signature, for peers (the
	// fleet compatibility gate) deciding whether a new version can
	// coexist with what this node runs.
	if s.active != nil {
		resp["signature"] = s.active.prog.Signature()
	}
	writeJSON(w, http.StatusOK, resp)
}

func versionOf(in *installed) string {
	if in == nil {
		return ""
	}
	return in.version
}

// handleStats serves a registry snapshot stamped with a monotonic
// timestamp (nanoseconds on the node's substrate clock). Pollers
// computing windowed rates divide counter deltas by mono_ns deltas
// from the same response, so a pair of snapshots is always internally
// consistent: the rate never mixes one poll's counters with another
// poll's guess at elapsed time.
//
// The stamp is the SUBSTRATE's clock (substrate.Env.Now), not Go's
// process clock, deliberately: on rtnet that clock carries any
// chaos-injected skew, so a skewed host's distorted rate windows are
// observable through this endpoint — the distributed-testbed failure
// mode the clock-skew primitive exists to reproduce.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"node":    s.node.Hostname(),
		"mono_ns": s.node.Env().Now().Nanoseconds(),
		"stats":   s.node.Env().Metrics().Snapshot(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	version := versionOf(s.active)
	var sig any
	if s.active != nil {
		if sg := s.active.prog.Signature(); sg != nil {
			sig = sg
		}
	}
	s.mu.Unlock()
	resp := map[string]any{
		"ok":      true,
		"node":    s.node.Hostname(),
		"asp":     s.node.CurrentProcessor() != nil,
		"version": version,
	}
	// The active version's channel-interface signature rides the health
	// probe so the fleet's compatibility gate needs no extra round-trip.
	if sig != nil {
		resp["signature"] = sig
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeReject reports a rejected protocol as structured JSON: the
// rendered error plus the individual span-carrying diagnostics, so the
// deploy tooling can point at the offending source lines instead of
// echoing one opaque string.
//
//	{"error": "stage rejected: ...", "diagnostics": [{"pos": {...}, "end": {...}, "msg": "..."}]}
func writeReject(w http.ResponseWriter, status int, msg string, err error) {
	body := map[string]any{"error": msg}
	if ds := diag.Of(err); len(ds) > 0 {
		body["diagnostics"] = ds
	}
	writeJSON(w, status, body)
}

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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"planp.dev/planp/internal/lang/diag"
	"planp.dev/planp/internal/lang/typecheck"
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
	engine  planprt.EngineKind
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
//	                      (query: engine=interp|jit,
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
//	                      and its signature with that signature's digest
//	                      (query: signature=<digest> omits the signature
//	                      when the digest names it)
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
// cannot be read, such as one shorter than its Content-Length.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int) ([]byte, bool) {
	body, err := ReadSized(r.Body, r.ContentLength, limit)
	switch {
	case errors.Is(err, ErrTooLarge):
		http.Error(w, fmt.Sprintf("body over %d bytes", limit), http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
	default:
		return body, true
	}
	return nil, false
}

// ErrTooLarge is ReadSized's answer for a body over its limit.
var ErrTooLarge = errors.New("body over the size limit")

// ReadSized reads a whole HTTP body of at most limit bytes whose
// Content-Length is size (-1 when unknown, as for a chunked body). A
// known size is read into one buffer of exactly that length, where
// io.ReadAll would grow one by doubling. A body over the limit, as
// declared or as it runs, is ErrTooLarge; one that ends short of its
// declared size is io.ErrUnexpectedEOF.
func ReadSized(body io.Reader, size int64, limit int) ([]byte, error) {
	if size > int64(limit) {
		return nil, ErrTooLarge
	}
	if size < 0 {
		b, err := io.ReadAll(io.LimitReader(body, int64(limit)+1))
		if err == nil && len(b) > limit {
			return nil, ErrTooLarge
		}
		return b, err
	}
	b := make([]byte, size)
	if _, err := io.ReadFull(body, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// WriteJSON answers with v as a JSON body under status — the one
// encoder of every control-plane response, here and in the packages
// that mount beside this server (fleet, adapt, testbed). The body is
// encoded first, into a pooled buffer, so the answer carries its
// Content-Length and a reader (ReadSized) can allocate it at once.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := answers.Get().(*bytes.Buffer)
	defer answers.Put(buf) // w.Write does not keep the bytes
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, "encoding the answer: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// answers holds WriteJSON's encode buffers.
var answers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// QueryValue is url.ParseQuery(raw).Get(key) without the map: the
// first value of key among the pairs ParseQuery keeps, which skips a
// pair holding ';' or one whose key or value does not unescape. Only a
// key or value with something to unescape allocates. Every handler of
// the control plane reads its query this way, from r.URL.RawQuery.
func QueryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// load reads and bounds the uploaded source, decodes the
// engine/verify/version parameters of the request's query and
// compiles without activating (planprt.Load: parse, late-check,
// verify, codegen) — the expensive, rejectable work, done before s.mu
// is taken. On failure it has already written the HTTP error: a 422
// Reject, headed by what, when the protocol rather than the request
// framing is at fault.
func (s *Server) load(w http.ResponseWriter, r *http.Request, what string) (*installed, bool) {
	body, ok := ReadBody(w, r, maxASPSource)
	if !ok {
		return nil, false
	}
	q := r.URL.RawQuery
	cfg, err := planprt.ParseConfig(QueryValue(q, "engine"), QueryValue(q, "verify"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	cfg.Output = s.out
	// The source is body itself, not a copy: ReadSized made the buffer
	// for this request, nothing else holds it and nothing writes to it
	// again, so it may back the string the compile cache keeps as a key.
	prog, err := planprt.Load(unsafe.String(unsafe.SliceData(body), len(body)), cfg)
	if err != nil {
		writeReject(w, fmt.Sprintf("%s rejected: %v", what, err), err)
		return nil, false
	}
	return &installed{version: QueryValue(q, "version"), engine: cfg.Engine, prog: prog}, true
}

// swap makes to the version that intercepts packets, and is the one
// place a runtime is uninstalled or installed: withdraw whatever runs,
// install to (nil leaves the node bare), and if that fails reinstall
// what was displaced, so a failed swap never strands a node that was
// serving traffic. On success s.active is to; on failure it is the
// displaced version again (or nil, should even that not reinstall).
// The caller holds s.mu.
func (s *Server) swap(to *installed) error {
	old := s.active
	if old != nil {
		old.rt.Uninstall()
		old.rt, s.active = nil, nil
	}
	if to == nil {
		return nil
	}
	rt, err := planprt.Install(s.node, to.prog, s.out)
	if err != nil {
		if old != nil {
			s.swap(old) // s.active is nil here: this only installs
		}
		return err
	}
	to.rt, s.active = rt, to
	return nil
}

// lock takes s.mu and reconciles s.active with the node: a crash
// (substrate.Crasher) removes the node's processor behind the server's
// back, and the version it ran is then no longer active. Its install
// slot is released, so a redeploy reinstalls it; prev is kept. Every
// handler that reads or changes s.active takes the lock this way.
func (s *Server) lock() {
	s.mu.Lock()
	if s.active != nil && s.node.CurrentProcessor() != substrate.Processor(s.active.rt) {
		s.swap(nil)
	}
}

// install is the one-shot download path: load (compile without
// activate) and activate in a single request. It refuses to replace a
// running protocol — upgrades go through stage/activate.
func (s *Server) install(w http.ResponseWriter, r *http.Request) {
	in, ok := s.load(w, r, "download")
	if !ok {
		return
	}
	s.lock()
	defer s.mu.Unlock()
	if s.node.CurrentProcessor() != nil {
		http.Error(w, "node already runs a protocol (DELETE /asp first, or stage/activate to upgrade)", http.StatusConflict)
		return
	}
	if err := s.swap(in); err != nil {
		writeReject(w, fmt.Sprintf("install rejected: %v", err), err)
		return
	}
	WriteJSON(w, http.StatusOK, Installed{
		Installed: true, Node: s.node.Hostname(), Engine: string(in.engine), Version: in.version,
	})
}

func (s *Server) uninstall(w http.ResponseWriter, _ *http.Request) {
	s.lock()
	defer s.mu.Unlock()
	if s.active == nil {
		http.Error(w, "no protocol installed", http.StatusNotFound)
		return
	}
	s.swap(nil)
	WriteJSON(w, http.StatusOK, Withdrawn{Node: s.node.Hostname()})
}

// status reports the node's protocol state machine: which version is
// active, which is staged, and which would a rollback restore. The
// fleet controller reconciles ambiguous activations (lost responses,
// nodes dying mid-phase) against this.
func (s *Server) status(w http.ResponseWriter, _ *http.Request) {
	s.lock()
	defer s.mu.Unlock()
	WriteJSON(w, http.StatusOK, Status{
		Node:      s.node.Hostname(),
		ASP:       s.active != nil,
		Active:    versionOf(s.active),
		Staged:    versionOf(s.staged),
		Prev:      versionOf(s.prev),
		Signature: signatureOf(s.active),
	})
}

func versionOf(in *installed) string {
	if in == nil {
		return ""
	}
	return in.version
}

// signatureOf is the version's channel-interface signature, for peers
// (the fleet compatibility gate) deciding whether a new version can
// coexist with what this node runs.
func signatureOf(in *installed) *typecheck.Signature {
	if in == nil {
		return nil
	}
	return in.prog.Signature()
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
	WriteJSON(w, http.StatusOK, Stats{
		Node:   s.node.Hostname(),
		MonoNS: s.node.Env().Now().Nanoseconds(),
		Stats:  s.node.Env().Metrics().Snapshot(),
	})
}

// handleHealth answers the fleet's phase-0 probe. A prober that already
// holds the active signature names it by digest (?signature=) and gets
// only the digest back, so it decodes no signature it has.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{OK: true, Node: s.node.Hostname()}
	s.lock()
	if s.active != nil {
		h.Version = s.active.version
		h.SignatureDigest = s.active.prog.SigDigest()
		if h.SignatureDigest != QueryValue(r.URL.RawQuery, "signature") {
			h.Signature = s.active.prog.Signature()
		}
	}
	s.mu.Unlock()
	h.ASP = s.node.CurrentProcessor() != nil
	WriteJSON(w, http.StatusOK, h)
}

// writeReject reports a protocol the node refused as a 422 Reject.
func writeReject(w http.ResponseWriter, msg string, err error) {
	WriteJSON(w, http.StatusUnprocessableEntity, Reject{Error: msg, Diagnostics: diag.Of(err)})
}

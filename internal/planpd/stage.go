// The node half of the two-phase fleet rollout protocol
// (internal/fleet): stage = verify + compile a version without touching
// packet processing; activate = swap it in atomically, retaining the
// displaced version for rollback; rollback = undo an activation. Every
// transition is idempotent, because the controller retries lost
// responses — a node must converge to the same state no matter how many
// times a phase request is replayed.
//
//	           stage            activate              rollback(v)
//	(bare) ───────────▶ Staged ───────────▶ Active ───────────▶ prev
//	  ▲                   │ abort             ▲ │ stage(v')
//	  │                   ▼                   └─┘  (upgrade cycle)
//	  │                (cleared)                │
//	  └──────────────── crash ──────────────────┘
//
// A crash clears the node's processor behind the server; Server.lock
// notices and returns the node to bare, keeping prev.
package planpd

import (
	"fmt"
	"net/http"
)

// stage and abortStage implement phase 1 of a rollout.
//
//	POST   /asp/stage?version=v   load the body (verify + compile) and
//	                              hold it; replaces any prior stage
//	DELETE /asp/stage[?version=v] abort: discard the staged version
//	                              (scoped to v when given); idempotent
func (s *Server) stage(w http.ResponseWriter, r *http.Request) {
	if QueryValue(r.URL.RawQuery, "version") == "" {
		http.Error(w, "stage requires a ?version= label", http.StatusBadRequest)
		return
	}
	// Phase 1 is where failure costs nothing: the node's packet
	// processing is untouched until activate.
	in, ok := s.load(w, r, "stage")
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.staged = in
	WriteJSON(w, http.StatusOK, Staged{
		Staged: true, Version: in.version, Node: s.node.Hostname(),
		Engine: string(in.engine), Signature: in.prog.Signature(),
	})
}

func (s *Server) abortStage(w http.ResponseWriter, r *http.Request) {
	version := QueryValue(r.URL.RawQuery, "version")
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staged != nil && (version == "" || s.staged.version == version) {
		s.staged = nil
	}
	WriteJSON(w, http.StatusOK, Staged{Staged: s.staged != nil, Node: s.node.Hostname()})
}

// handleActivate implements phase 2: POST /asp/activate?version=v swaps
// the staged version in. The displaced version is retained as the
// rollback target. Re-activating the already-active version succeeds
// without side effects (retry of a lost response).
func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	version := QueryValue(r.URL.RawQuery, "version")
	if version == "" {
		http.Error(w, "activate requires a ?version= label", http.StatusBadRequest)
		return
	}

	s.lock()
	defer s.mu.Unlock()
	resp := Activated{Active: true, Version: version, Node: s.node.Hostname()}
	if s.active != nil && s.active.version == version {
		// Idempotent replay: this version already runs.
		WriteJSON(w, http.StatusOK, resp)
		return
	}
	if s.staged == nil || s.staged.version != version {
		http.Error(w, fmt.Sprintf("version %q is not staged (staged: %q)", version, versionOf(s.staged)),
			http.StatusConflict)
		return
	}
	if s.active == nil && s.node.CurrentProcessor() != nil {
		// A protocol the server does not manage (installed through
		// planprt directly) occupies the node; refuse to displace it.
		http.Error(w, "node runs an unmanaged protocol", http.StatusConflict)
		return
	}

	old := s.active
	if err := s.swap(s.staged); err != nil {
		// E.g. the single-node install limit. The displaced version is
		// back in place; the staged one stays for a retry or an abort.
		http.Error(w, fmt.Sprintf("activate rejected: %v", err), http.StatusUnprocessableEntity)
		return
	}
	s.staged, s.prev = nil, old
	previous := versionOf(old)
	resp.Previous = &previous
	WriteJSON(w, http.StatusOK, resp)
}

// handleRollback undoes an activation: POST /asp/rollback?version=v
// means "return to the state from before version v ran". If v is
// active it is withdrawn and the previously active version (possibly
// none) is restored. If v is not active — it never activated here, or
// a prior rollback already ran — the request succeeds without side
// effects, which is what makes controller retries safe.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	version := QueryValue(r.URL.RawQuery, "version")
	if version == "" {
		http.Error(w, "rollback requires a ?version= label", http.StatusBadRequest)
		return
	}

	s.lock()
	defer s.mu.Unlock()
	rolledBack := s.active != nil && s.active.version == version
	if rolledBack {
		if err := s.swap(s.prev); err != nil {
			// The previous version no longer installs (it should — its
			// install slot was just released); version keeps running.
			http.Error(w, fmt.Sprintf("rollback could not restore %q: %v", s.prev.version, err),
				http.StatusInternalServerError)
			return
		}
		s.prev = nil
	}
	WriteJSON(w, http.StatusOK, RolledBack{
		RolledBack: rolledBack, Active: versionOf(s.active), Node: s.node.Hostname(),
	})
}

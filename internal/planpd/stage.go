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
//	                      │ abort             ▲ │ stage(v')
//	                      ▼                   └─┘  (upgrade cycle)
//	                   (cleared)
package planpd

import (
	"fmt"
	"net/http"

	"planp.dev/planp/internal/planprt"
)

// stage and abortStage implement phase 1 of a rollout.
//
//	POST   /asp/stage?version=v   load the body (verify + compile) and
//	                              hold it; replaces any prior stage
//	DELETE /asp/stage[?version=v] abort: discard the staged version
//	                              (scoped to v when given); idempotent
func (s *Server) stage(w http.ResponseWriter, r *http.Request) {
	version := r.URL.Query().Get("version")
	if version == "" {
		http.Error(w, "stage requires a ?version= label", http.StatusBadRequest)
		return
	}
	src, cfg, ok := s.readProtocol(w, r)
	if !ok {
		return
	}
	// Compile-without-activate: the expensive, rejectable work happens
	// here, in phase 1, where failure costs nothing — the node's packet
	// processing is untouched until activate.
	prog, err := planprt.Load(src, cfg)
	if err != nil {
		writeReject(w, http.StatusUnprocessableEntity, fmt.Sprintf("stage rejected: %v", err), err)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.staged = &installed{version: version, source: src, cfg: cfg, prog: prog}
	writeJSON(w, http.StatusOK, map[string]any{
		"staged":    true,
		"version":   version,
		"node":      s.node.Hostname(),
		"engine":    string(cfg.Engine),
		"signature": prog.Signature(),
	})
}

func (s *Server) abortStage(w http.ResponseWriter, r *http.Request) {
	version := r.URL.Query().Get("version")
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staged != nil && (version == "" || s.staged.version == version) {
		s.staged = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"staged": s.staged != nil,
		"node":   s.node.Hostname(),
	})
}

// handleActivate implements phase 2: POST /asp/activate?version=v swaps
// the staged version in. The displaced version is retained as the
// rollback target. Re-activating the already-active version succeeds
// without side effects (retry of a lost response).
func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	version := r.URL.Query().Get("version")
	if version == "" {
		http.Error(w, "activate requires a ?version= label", http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active != nil && s.active.version == version {
		// Idempotent replay: this version already runs.
		writeJSON(w, http.StatusOK, map[string]any{
			"active": true, "version": version, "node": s.node.Hostname(),
		})
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
	if old != nil {
		old.rt.Uninstall()
		old.rt = nil
	}
	st := s.staged
	rt, err := planprt.Install(s.node, st.prog, s.out)
	if err != nil {
		// Activation failed (e.g. the single-node install limit). Put
		// the displaced version back so a failed activate never leaves
		// the node bare; the staged version stays for a retry or abort.
		if old != nil {
			if oldRT, restoreErr := planprt.Install(s.node, old.prog, s.out); restoreErr == nil {
				old.rt = oldRT
				s.active = old
			} else {
				s.active = nil
			}
		}
		http.Error(w, fmt.Sprintf("activate rejected: %v", err), http.StatusUnprocessableEntity)
		return
	}
	st.rt = rt
	s.active = st
	s.staged = nil
	s.prev = old
	writeJSON(w, http.StatusOK, map[string]any{
		"active": true, "version": version, "node": s.node.Hostname(),
		"previous": versionOf(old),
	})
}

// handleRollback undoes an activation: POST /asp/rollback?version=v
// means "return to the state from before version v ran". If v is
// active it is withdrawn and the previously active version (possibly
// none) is restored. If v is not active — it never activated here, or
// a prior rollback already ran — the request succeeds without side
// effects, which is what makes controller retries safe.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	version := r.URL.Query().Get("version")
	if version == "" {
		http.Error(w, "rollback requires a ?version= label", http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil || s.active.version != version {
		writeJSON(w, http.StatusOK, map[string]any{
			"rolledback": false, "active": versionOf(s.active), "node": s.node.Hostname(),
		})
		return
	}
	s.active.rt.Uninstall()
	s.active.rt = nil
	s.active = nil
	if s.prev != nil {
		rt, err := planprt.Install(s.node, s.prev.prog, s.out)
		if err != nil {
			// The previous version no longer installs (it should — its
			// install slot was just released). The node is left bare
			// rather than running the rolled-back version.
			http.Error(w, fmt.Sprintf("rollback could not restore %q: %v", s.prev.version, err),
				http.StatusInternalServerError)
			s.prev = nil
			return
		}
		s.prev.rt = rt
		s.active = s.prev
		s.prev = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"rolledback": true, "active": versionOf(s.active), "node": s.node.Hostname(),
	})
}

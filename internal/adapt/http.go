// The adaptation control API: start a canary run over HTTP and watch
// it (and every past run) converge. Mounted by cmd/planpd next to the
// fleet endpoints — POST /adapt is the self-promoting sibling of
// POST /deploy.
package adapt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"planp.dev/planp/internal/fleet"
	"planp.dev/planp/internal/planpd"
	"planp.dev/planp/internal/planprt"
)

// maxAdaptBody bounds a canary request (the embedded protocol source
// dominates; the largest in-tree ASP is ~5 KB).
const maxAdaptBody = 2 << 20

// CanaryRequest is the POST /adapt body: a canary plan in JSON, with
// guards in their operator string form.
type CanaryRequest struct {
	Version string `json:"version"`
	Source  string `json:"source"`
	// SourceName labels Source in diagnostics (POST /deploy's src_name).
	SourceName string `json:"src_name,omitempty"`
	Engine     string `json:"engine,omitempty"`
	Verify     string `json:"verify,omitempty"`
	Reason     string `json:"reason,omitempty"`

	Canary   []fleet.Target `json:"canary"`
	Baseline []fleet.Target `json:"baseline,omitempty"`

	Guards     []string `json:"guards"`
	Windows    int      `json:"windows,omitempty"`
	IntervalMS int      `json:"interval_ms,omitempty"`

	// TimeoutMS bounds the whole run (default: windows*interval plus a
	// minute of deploy slack).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Plan compiles the request into a CanaryPlan.
func (req *CanaryRequest) Plan() (CanaryPlan, error) {
	if req.Source == "" {
		return CanaryPlan{}, errors.New("adapt: request needs source")
	}
	if len(req.Canary) == 0 {
		return CanaryPlan{}, errors.New("adapt: request needs at least one canary target")
	}
	if _, err := planprt.ParseConfig(req.Engine, req.Verify); err != nil {
		return CanaryPlan{}, fmt.Errorf("adapt: %w", err)
	}
	guards, err := ParseGuards(req.Guards)
	if err != nil {
		return CanaryPlan{}, err
	}
	return CanaryPlan{
		Spec: fleet.Spec{
			Version: req.Version, Source: req.Source, SourceName: req.SourceName,
			Engine: req.Engine, Verify: req.Verify, Reason: req.Reason,
		},
		Canary:   req.Canary,
		Baseline: req.Baseline,
		Guards:   guards,
		Windows:  req.Windows,
		Interval: time.Duration(req.IntervalMS) * time.Millisecond,
	}, nil
}

// Started answers POST /adapt; RunList answers GET /adapt.
type (
	Started struct {
		ID      int  `json:"id"`
		Started bool `json:"started"`
	}
	RunList struct {
		Runs []RunView `json:"runs"`
	}
)

// Handler returns the adaptation API:
//
//	POST /adapt   start a canary run (CanaryRequest body); responds
//	              immediately with {"id": N, "started": true} — the run
//	              proceeds in the background and lands in the fleet
//	              history either way; 503 while maxRuns runs are in
//	              progress
//	GET  /adapt   the kept runs' status (see maxRuns), oldest first
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /adapt", c.startRun)
	mux.HandleFunc("GET /adapt", func(w http.ResponseWriter, _ *http.Request) {
		planpd.WriteJSON(w, http.StatusOK, RunList{Runs: c.Runs()})
	})
	return mux
}

func (c *Controller) startRun(w http.ResponseWriter, r *http.Request) {
	body, ok := planpd.ReadBody(w, r, maxAdaptBody)
	if !ok {
		return
	}
	var req CanaryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("decoding request: %v", err), http.StatusBadRequest)
		return
	}
	plan, err := req.Plan()
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	run := c.addRun(&plan, true)
	if run == nil {
		http.Error(w, fmt.Sprintf("adapt: %d runs in progress; try again once one finishes", maxRuns), http.StatusServiceUnavailable)
		return
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = time.Duration(plan.Windows)*plan.Interval + time.Minute
	}

	// The run outlives the request: it is bounded by its own deadline
	// and by the controller's shutdown instead.
	ctx, cancel := context.WithTimeout(c.bg, timeout)
	c.bgWG.Add(1)
	go func() {
		defer c.bgWG.Done()
		defer cancel()
		c.canaryRun(ctx, plan, run) // the run's verdict is its own event
	}()
	planpd.WriteJSON(w, http.StatusAccepted, Started{ID: run.View().ID, Started: true})
}

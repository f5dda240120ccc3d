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
	"io"
	"net/http"
	"time"

	"planp.dev/planp/internal/fleet"
)

// maxAdaptBody bounds a canary request (the embedded protocol source
// dominates; the largest in-tree ASP is ~5 KB).
const maxAdaptBody = 2 << 20

// CanaryRequest is the POST /adapt body: a canary plan in JSON, with
// guards in their operator string form.
type CanaryRequest struct {
	Version string `json:"version"`
	Source  string `json:"source"`
	Engine  string `json:"engine,omitempty"`
	Verify  string `json:"verify,omitempty"`
	Reason  string `json:"reason,omitempty"`

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
	guards, err := ParseGuards(req.Guards)
	if err != nil {
		return CanaryPlan{}, err
	}
	return CanaryPlan{
		Spec: fleet.Spec{
			Version: req.Version, Source: req.Source,
			Engine: req.Engine, Verify: req.Verify, Reason: req.Reason,
		},
		Canary:   req.Canary,
		Baseline: req.Baseline,
		Guards:   guards,
		Windows:  req.Windows,
		Interval: time.Duration(req.IntervalMS) * time.Millisecond,
	}, nil
}

// timeout returns the run's overall deadline.
func (req *CanaryRequest) timeout(plan CanaryPlan) time.Duration {
	if req.TimeoutMS > 0 {
		return time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return time.Duration(plan.Windows)*plan.Interval + time.Minute
}

// Handler returns the adaptation API:
//
//	POST /adapt   start a canary run (CanaryRequest body); responds
//	              immediately with {"id": N, "started": true} — the run
//	              proceeds in the background and lands in the fleet
//	              history either way
//	GET  /adapt   every run's status, oldest first
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /adapt", c.startRun)
	mux.HandleFunc("GET /adapt", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"runs": c.Runs()})
	})
	return mux
}

func (c *Controller) startRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxAdaptBody+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	if len(body) > maxAdaptBody {
		http.Error(w, "request too large", http.StatusRequestEntityTooLarge)
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
	// Canary validates and defaults the plan too, but the HTTP caller
	// has already been answered by then; re-run the cheap defaulting
	// here so the timeout and the accepted response are honest.
	if plan.Windows <= 0 {
		plan.Windows = 3
	}
	if plan.Interval <= 0 {
		plan.Interval = 2 * time.Second
	}

	// The run outlives the request: it is detached from the request
	// context and bounded by its own deadline instead.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), req.timeout(plan))
	idc := make(chan int, 1)
	untrack := c.trackBackground(cancel)
	go func() {
		defer untrack()
		defer cancel()
		out, err := c.CanaryWithID(ctx, plan, idc)
		if err != nil {
			c.logf("adapt: run failed: %v", err)
			return
		}
		c.logf("adapt: run finished: %s (%s)", out.Verdict, out.Reason)
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{"id": <-idc, "started": true})
}

// CanaryWithID is Canary, reporting the run's ID on idc as soon as the
// run record exists (the HTTP handler answers with it while the run
// continues in the background).
func (c *Controller) CanaryWithID(ctx context.Context, plan CanaryPlan, idc chan<- int) (*Outcome, error) {
	if plan.Windows <= 0 {
		plan.Windows = 3
	}
	if plan.Interval <= 0 {
		plan.Interval = 2 * time.Second
	}
	run := c.newRun(plan.Spec.Version, plan)
	if idc != nil {
		idc <- run.View().ID
	}
	return c.canaryRun(ctx, plan, run)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

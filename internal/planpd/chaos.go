// The remote chaos control plane: an HTTP surface over one daemon's
// chaos.Engine, so fault timelines can be staged and driven from
// ANOTHER host — the distributed-testbed shape, where the operator's
// machine injects a partition into a cluster of planpd daemons and
// watches the adaptation loop route around it.
//
// A timeline arrives as JSON (chaos.Timeline), is validated against
// the daemon's actual topology at staging time (unknown links, bad
// directions, and unsupported primitives are structured 422s, never
// mid-run panics); the compiled scenario is what the daemon holds, and
// each start plays it again as a cancelable run. Stopping a run
// suppresses its pending steps; `clear` additionally heals every fault
// already injected.
package planpd

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"planp.dev/planp/internal/chaos"
)

// maxTimeline bounds an uploaded timeline; far above any real schedule.
const maxTimeline = 1 << 20

// ChaosServer is the /chaos control API over one chaos engine.
type ChaosServer struct {
	eng *chaos.Engine

	mu     sync.Mutex
	staged map[string]*chaos.Scenario
	runs   map[string]*chaos.Run
}

// NewChaosServer returns a control server driving eng. The engine's
// links and nodes must be wired before requests arrive (timelines are
// validated against them).
func NewChaosServer(eng *chaos.Engine) *ChaosServer {
	return &ChaosServer{
		eng:    eng,
		staged: map[string]*chaos.Scenario{},
		runs:   map[string]*chaos.Run{},
	}
}

// Handler returns the chaos control API:
//
//	POST /chaos/stage   validate the timeline JSON in the body against
//	                    this daemon's topology and hold it for start
//	POST /chaos/start   play a timeline: ?name= plays a staged one, a
//	                    request body compiles and plays in one shot;
//	                    at_ms 0 steps are applied before the answer
//	POST /chaos/stop    stop a run (?name=, or every run when omitted),
//	                    suppressing pending steps; ?clear=1 also heals
//	                    every injected fault (links + clock skew)
//	GET  /chaos/status  wired links, adopted nodes, staged timelines,
//	                    and each run's fired/total/stopped state
func (cs *ChaosServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /chaos/stage", cs.handleStage)
	mux.HandleFunc("POST /chaos/start", cs.handleStart)
	mux.HandleFunc("POST /chaos/stop", cs.handleStop)
	mux.HandleFunc("GET /chaos/status", cs.handleStatus)
	return mux
}

// readTimeline reads, parses, and compiles a timeline from the request
// body, answering the HTTP error itself on failure. Compiling at
// staging time is the contract: a timeline that stages is a timeline
// that will not blow up mid-run.
func (cs *ChaosServer) readTimeline(w http.ResponseWriter, r *http.Request) (string, *chaos.Scenario, bool) {
	body, ok := ReadBody(w, r, maxTimeline)
	if !ok {
		return "", nil, false
	}
	tl, err := chaos.ParseTimeline(body)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, Reject{Error: err.Error()})
		return "", nil, false
	}
	if tl.Name == "" {
		WriteJSON(w, http.StatusBadRequest, Reject{Error: "timeline needs a name"})
		return "", nil, false
	}
	sc, err := cs.eng.Compile(tl)
	if err != nil {
		WriteJSON(w, http.StatusUnprocessableEntity, Reject{Error: err.Error()})
		return "", nil, false
	}
	return tl.Name, sc, true
}

func (cs *ChaosServer) handleStage(w http.ResponseWriter, r *http.Request) {
	name, sc, ok := cs.readTimeline(w, r)
	if !ok {
		return
	}
	cs.mu.Lock()
	cs.staged[name] = sc
	cs.mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{
		"staged": name,
		"steps":  sc.Steps(),
	})
}

func (cs *ChaosServer) handleStart(w http.ResponseWriter, r *http.Request) {
	name := QueryValue(r.URL.RawQuery, "name")
	var sc *chaos.Scenario
	if name != "" {
		cs.mu.Lock()
		sc = cs.staged[name]
		cs.mu.Unlock()
		if sc == nil {
			WriteJSON(w, http.StatusNotFound, Reject{Error: fmt.Sprintf("no staged timeline %q", name)})
			return
		}
	} else {
		var ok bool
		if name, sc, ok = cs.readTimeline(w, r); !ok {
			return
		}
	}

	cs.mu.Lock()
	if prev := cs.runs[name]; prev != nil && !prev.Done() {
		cs.mu.Unlock()
		WriteJSON(w, http.StatusConflict, Reject{Error: fmt.Sprintf("timeline %q is already running (stop it first)", name)})
		return
	}
	// Steps at at_ms 0 are applied here, before the answer goes out.
	cs.runs[name] = cs.eng.Play(sc)
	cs.mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{
		"started": name,
		"steps":   sc.Steps(),
	})
}

func (cs *ChaosServer) handleStop(w http.ResponseWriter, r *http.Request) {
	name := QueryValue(r.URL.RawQuery, "name")
	cs.mu.Lock()
	var stopped []string
	if name == "" {
		for n, run := range cs.runs {
			run.Stop()
			stopped = append(stopped, n)
		}
	} else if run := cs.runs[name]; run != nil {
		run.Stop()
		stopped = append(stopped, name)
	} else {
		cs.mu.Unlock()
		WriteJSON(w, http.StatusNotFound, Reject{Error: fmt.Sprintf("no run %q", name)})
		return
	}
	cs.mu.Unlock()
	sort.Strings(stopped)

	cleared := QueryValue(r.URL.RawQuery, "clear") == "1"
	if cleared {
		cs.eng.ClearAll()
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"stopped": stopped,
		"cleared": cleared,
	})
}

func (cs *ChaosServer) handleStatus(w http.ResponseWriter, _ *http.Request) {
	links := cs.eng.LinkNames()
	nodes := cs.eng.NodeNames()

	cs.mu.Lock()
	staged := make([]string, 0, len(cs.staged))
	for name := range cs.staged {
		staged = append(staged, name)
	}
	runs := map[string]any{}
	for name, run := range cs.runs {
		fired, total, wasStopped := run.Status()
		runs[name] = map[string]any{
			"fired":   fired,
			"total":   total,
			"stopped": wasStopped,
			"done":    run.Done(),
		}
	}
	cs.mu.Unlock()
	sort.Strings(staged)

	WriteJSON(w, http.StatusOK, map[string]any{
		"links":  links,
		"nodes":  nodes,
		"staged": staged,
		"runs":   runs,
	})
}
